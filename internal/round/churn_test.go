// Churn-stage tests: fleet membership through Respond, mid-round
// departures through Execute/Settle, and the retry/quorum edge cases the
// survivability layer must hold exactly.
package round_test

import (
	"math/rand"
	"testing"

	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
	"chiron/internal/round"
)

func churnScript(t *testing.T, spec string) *faults.ChurnScript {
	t.Helper()
	s, err := faults.ParseChurnScript(spec)
	if err != nil {
		t.Fatalf("ParseChurnScript(%q): %v", spec, err)
	}
	return s
}

// TestRespondChurnAbsence: an absent node is skipped before any RNG draw —
// it neither joins nor consumes availability/jitter draws — and a departing
// node still plays its best response (it is present at the Offer stage).
func TestRespondChurnAbsence(t *testing.T) {
	const n = 4
	nodes := make([]*device.Node, n)
	for i := range nodes {
		nodes[i] = testNode(i)
	}
	price := nodes[0].PriceForFreq(1e9)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = price
	}
	// Node 1 absent from the start; node 2 departs mid-round 1.
	churn := churnScript(t, "+1@5,-2@1")

	const seed, jitter = 7, 0.25
	st := round.NewState(1, prices, 0, n)
	if err := (round.Offer{NumNodes: n}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	resp := round.Respond{
		Fleet:      device.FromNodes(nodes),
		Churn:      churn,
		CommJitter: jitter,
		Rng:        rand.New(rand.NewSource(seed)),
	}
	if err := resp.Run(st); err != nil {
		t.Fatalf("Respond: %v", err)
	}

	if st.Joined[1] || st.Record.Outcomes[1] != market.OutcomeAbsent {
		t.Fatalf("absent node 1 joined: outcome %v", st.Record.Outcomes[1])
	}
	if !st.Joined[2] || !st.Departing[2] {
		t.Fatalf("departing node 2: joined=%v departing=%v, want true/true",
			st.Joined[2], st.Departing[2])
	}
	if st.Departing[0] || st.Departing[3] {
		t.Fatal("staying nodes marked departing")
	}
	if st.Record.Participants != 3 {
		t.Fatalf("Participants = %d, want 3", st.Record.Participants)
	}

	// The absent node consumed no jitter draw: the reference stream draws
	// jitter only for nodes 0, 2, 3 in index order.
	ref := rand.New(rand.NewSource(seed))
	for _, i := range []int{0, 2, 3} {
		comm := nodes[i].CommTime * (1 + (ref.Float64()*2-1)*jitter)
		if st.CommTimes[i] != comm {
			t.Fatalf("node %d comm %v, reference %v — absent node shifted the draw stream",
				i, st.CommTimes[i], comm)
		}
	}
}

// TestRespondNilChurnKeepsStream: a nil churn schedule must leave the RNG
// stream and join pattern exactly as before the churn feature existed.
func TestRespondNilChurnKeepsStream(t *testing.T) {
	const n, seed = 6, 99
	nodes := make([]*device.Node, n)
	for i := range nodes {
		nodes[i] = testNode(i)
	}
	price := nodes[0].PriceForFreq(1e9)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = price
	}
	run := func(churn faults.ChurnSchedule) *round.State {
		st := round.NewState(1, prices, 0, n)
		if err := (round.Offer{NumNodes: n}).Run(st); err != nil {
			t.Fatalf("Offer: %v", err)
		}
		resp := round.Respond{
			Fleet:        device.FromNodes(nodes),
			Churn:        churn,
			Availability: 0.6,
			CommJitter:   0.2,
			Rng:          rand.New(rand.NewSource(seed)),
		}
		if err := resp.Run(st); err != nil {
			t.Fatalf("Respond: %v", err)
		}
		return st
	}
	empty := churnScript(t, "")
	a, b := run(nil), run(empty)
	for i := 0; i < n; i++ {
		if a.Joined[i] != b.Joined[i] || a.CommTimes[i] != b.CommTimes[i] ||
			a.Record.Times[i] != b.Record.Times[i] {
			t.Fatalf("node %d: nil churn and empty script diverge", i)
		}
	}
}

// TestExecuteDeparture: a departing joined node fails like a crash — the
// server waits out the deadline (or the node's nominal finish without one)
// — and departure preempts whatever fault was scheduled for the node.
func TestExecuteDeparture(t *testing.T) {
	const nominal, deadline = 4.0, 10.0
	for _, tc := range []struct {
		name     string
		deadline float64
		fault    faults.Schedule
		wantTime float64
	}{
		{"no deadline waits nominal", 0, nil, nominal},
		{"deadline waited out", deadline, nil, deadline},
		{"departure preempts scheduled fault", deadline,
			faults.Script{1: {0: {Kind: faults.Straggle, Slowdown: 1.5}}}, deadline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := round.NewState(1, []float64{1}, 0, 1)
			if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
				t.Fatalf("Offer: %v", err)
			}
			st.Joined[0] = true
			st.Departing[0] = true
			st.Record.Participants = 1
			st.Record.Times[0] = nominal
			st.Record.Outcomes[0] = market.OutcomeCompleted
			st.CommTimes[0] = 1

			x := round.Execute{Faults: tc.fault, Deadline: tc.deadline}
			if err := x.Run(st); err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if st.Record.Outcomes[0] != market.OutcomeDeparted {
				t.Fatalf("outcome = %v, want departed", st.Record.Outcomes[0])
			}
			if st.Record.Times[0] != tc.wantTime {
				t.Fatalf("time = %v, want %v", st.Record.Times[0], tc.wantTime)
			}
		})
	}
}

// TestExecuteDeadlineTie pins the strict-inequality cut: a node finishing
// exactly at the deadline completes — only t > deadline is cut.
func TestExecuteDeadlineTie(t *testing.T) {
	const deadline = 10.0
	st := round.NewState(1, []float64{1}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	st.Joined[0] = true
	st.Record.Participants = 1
	st.Record.Times[0] = deadline // exactly on the wire
	st.Record.Outcomes[0] = market.OutcomeCompleted

	x := round.Execute{Deadline: deadline}
	if err := x.Run(st); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st.Record.Outcomes[0] != market.OutcomeCompleted {
		t.Fatalf("outcome = %v, want completed: ties go to the node", st.Record.Outcomes[0])
	}
	if st.Record.Times[0] != deadline {
		t.Fatalf("time = %v, want %v", st.Record.Times[0], deadline)
	}

	// One ULP past the wire is cut.
	st2 := round.NewState(1, []float64{1}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st2); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	st2.Joined[0] = true
	st2.Record.Participants = 1
	st2.Record.Times[0] = deadline * (1 + 1e-15)
	st2.Record.Outcomes[0] = market.OutcomeCompleted
	if err := x.Run(st2); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st2.Record.Outcomes[0] != market.OutcomeDeadlineCut {
		t.Fatalf("outcome = %v, want deadline-cut", st2.Record.Outcomes[0])
	}
}

// TestPipelineDepartureSettlement drives a full chain where one node
// departs mid-round: it earns exactly the FailurePayment fraction of its
// contracted payment and the ledger stays exact.
func TestPipelineDepartureSettlement(t *testing.T) {
	const failurePayment = 0.25
	nodes := []*device.Node{testNode(0), testNode(1)}
	price := nodes[0].PriceForFreq(1e9)
	ledger := testLedger(t, 1e6)
	model := &stubModel{acc: 0.3, step: 0.01}
	fleet := device.FromNodes(nodes)
	p := &round.Pipeline{
		Offer:   round.Offer{NumNodes: fleet.Len()},
		Respond: round.Respond{Fleet: fleet, Churn: churnScript(t, "-1@1")},
		Settle:  round.Settle{FailurePayment: failurePayment, EmptyTimeout: 5, Ledger: ledger},
		Commit:  round.Commit{Accuracy: model, Ledger: ledger, MinQuorum: 1},
	}
	st := round.NewState(1, []float64{price, price}, 0.3, 2)
	if err := p.Run(st); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Status != round.StatusCommitted {
		t.Fatalf("status = %v, want committed", st.Status)
	}
	if st.Record.Outcomes[1] != market.OutcomeDeparted {
		t.Fatalf("node 1 outcome = %v, want departed", st.Record.Outcomes[1])
	}
	want := st.ContractPay[0] + failurePayment*st.ContractPay[1]
	if st.Record.Payment != want {
		t.Fatalf("payment = %v, want completed + %v·departed = %v",
			st.Record.Payment, failurePayment, want)
	}
	if got := ledger.Remaining(); got != 1e6-want {
		t.Fatalf("ledger remaining %v, want %v", got, 1e6-want)
	}
	// The departed node is out of the completed cohort.
	if len(model.calls) != 1 || len(model.calls[0]) != 1 || model.calls[0][0] != 0 {
		t.Fatalf("Advance cohort = %v, want [0]", model.calls)
	}
}

// TestPipelineZeroSurvivorsQuorum: every joiner fails, so the completed
// set is empty — below any quorum. The round must still commit (failure
// payments and time are real costs), but the model must not advance.
func TestPipelineZeroSurvivorsQuorum(t *testing.T) {
	const failurePayment = 0.5
	nodes := []*device.Node{testNode(0), testNode(1)}
	price := nodes[0].PriceForFreq(1e9)
	ledger := testLedger(t, 1e6)
	model := &stubModel{acc: 0.3, step: 0.01}
	fleet := device.FromNodes(nodes)
	p := &round.Pipeline{
		Offer:   round.Offer{NumNodes: fleet.Len()},
		Respond: round.Respond{Fleet: fleet, Churn: churnScript(t, "-0@1")},
		Execute: round.Execute{Faults: faults.Script{1: {1: {Kind: faults.Crash}}}},
		Settle:  round.Settle{FailurePayment: failurePayment, EmptyTimeout: 5, Ledger: ledger},
		Commit:  round.Commit{Accuracy: model, Ledger: ledger, MinQuorum: 1},
	}
	st := round.NewState(1, []float64{price, price}, 0.3, 2)
	if err := p.Run(st); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Status != round.StatusCommitted {
		t.Fatalf("status = %v, want committed", st.Status)
	}
	if len(st.Completed) != 0 {
		t.Fatalf("completed = %v, want none", st.Completed)
	}
	if len(model.calls) != 0 {
		t.Fatal("model advanced below quorum")
	}
	if st.Record.Accuracy != 0.3 {
		t.Fatalf("accuracy = %v, want unchanged 0.3", st.Record.Accuracy)
	}
	want := st.ContractPay[0]*failurePayment + st.ContractPay[1]*failurePayment
	if st.Record.Payment != want {
		t.Fatalf("payment = %v, want %v", st.Record.Payment, want)
	}
	if ledger.NumRounds() != 1 {
		t.Fatalf("ledger rounds = %d, want 1 (failed rounds are still recorded)", ledger.NumRounds())
	}
}
