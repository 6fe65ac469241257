// Per-stage unit tests for the round pipeline, plus a chain-level property
// test that reuses the propcheck economic-law checkers. The package is
// round_test (not round) so it can import propcheck, which depends on
// edgeenv and therefore on round itself.
package round_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
	"chiron/internal/propcheck"
	"chiron/internal/round"
)

// testNode returns a node with round numbers: workload 1e8 cycles, so the
// interior optimum and compute time are easy to reason about by hand.
func testNode(id int) *device.Node {
	return &device.Node{
		ID:           id,
		CyclesPerBit: 10,
		DataBits:     1e7,
		FreqMin:      1e8,
		FreqMax:      1e10,
		Capacitance:  1e-28,
		CommTime:     1,
		Epochs:       1,
		SampleCount:  100,
	}
}

func testLedger(t *testing.T, budget float64) *market.Ledger {
	t.Helper()
	l, err := market.NewLedger(budget)
	if err != nil {
		t.Fatalf("NewLedger(%v): %v", budget, err)
	}
	return l
}

// stubModel is an accuracy.Model that counts Advance calls, so Commit's
// quorum gating is observable without a surrogate curve in the way.
type stubModel struct {
	acc   float64
	step  float64
	calls [][]int
}

func (m *stubModel) Reset() (float64, error) { return m.acc, nil }

func (m *stubModel) Advance(participants []int) (float64, error) {
	m.calls = append(m.calls, append([]int(nil), participants...))
	m.acc += m.step
	return m.acc, nil
}

func (m *stubModel) Accuracy() float64 { return m.acc }

func TestOfferValidatesPriceLength(t *testing.T) {
	st := round.NewState(1, []float64{1, 2}, 0, 3)
	if err := (round.Offer{NumNodes: 3}).Run(st); err == nil {
		t.Fatal("Offer accepted 2 prices for 3 nodes")
	}
}

func TestOfferSizesAndClonesRecord(t *testing.T) {
	prices := []float64{1, 2, 3}
	st := round.NewState(1, prices, 0, 3)
	if err := (round.Offer{NumNodes: 3}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	if len(st.Record.Prices) != 3 || len(st.Record.Freqs) != 3 ||
		len(st.Record.Times) != 3 || len(st.Record.Outcomes) != 3 {
		t.Fatalf("record vectors not sized to fleet: %+v", st.Record)
	}
	prices[0] = 99
	if st.Record.Prices[0] != 1 {
		t.Fatal("Offer aliased the caller's price slice instead of cloning it")
	}
}

func TestRespondPlaysBestResponse(t *testing.T) {
	nodes := []*device.Node{testNode(0), testNode(1), testNode(2)}
	nodes[2].Reserve = math.MaxFloat64 // node 2 always declines
	price := nodes[0].PriceForFreq(1e9)
	prices := []float64{price, price, price}

	st := round.NewState(1, prices, 0, 3)
	if err := (round.Offer{NumNodes: 3}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	if err := (round.Respond{Fleet: device.FromNodes(nodes)}).Run(st); err != nil {
		t.Fatalf("Respond: %v", err)
	}

	if st.Record.Participants != 2 {
		t.Fatalf("Participants = %d, want 2", st.Record.Participants)
	}
	var contracted float64
	for i := 0; i < 2; i++ {
		want := nodes[i].BestResponse(price)
		if !st.Joined[i] {
			t.Fatalf("node %d should have joined", i)
		}
		if st.Record.Freqs[i] != want.Freq || st.Record.Times[i] != want.Time ||
			st.ContractPay[i] != want.Payment {
			t.Fatalf("node %d: got (ζ=%v, T=%v, pay=%v), best response says (%v, %v, %v)",
				i, st.Record.Freqs[i], st.Record.Times[i], st.ContractPay[i],
				want.Freq, want.Time, want.Payment)
		}
		if st.Record.Outcomes[i] != market.OutcomeCompleted {
			t.Fatalf("node %d outcome %v before Execute", i, st.Record.Outcomes[i])
		}
		if st.CommTimes[i] != nodes[i].CommTime {
			t.Fatalf("node %d comm time %v, want nominal %v", i, st.CommTimes[i], nodes[i].CommTime)
		}
		contracted += want.Payment
	}
	if st.Joined[2] || st.Record.Freqs[2] != 0 || st.Record.Outcomes[2] != market.OutcomeAbsent {
		t.Fatalf("declining node 2 left a mark on the record: %+v", st.Record)
	}
	if st.Contracted != contracted {
		t.Fatalf("Contracted = %v, want Σ payments = %v", st.Contracted, contracted)
	}
}

// TestRespondReusedStateShrinkingJoinSet runs two rounds through one
// reused State, in vector and compact mode: every node joins the first
// round, only nodes 1 and 4 the second. Respond writes every node's
// outcome and CommTimes entry, so nothing the first round left may survive
// into the second — no stale completed outcome reaching Settle's cohort,
// no stale upload time.
func TestRespondReusedStateShrinkingJoinSet(t *testing.T) {
	const n = 6
	nodes := make([]*device.Node, n)
	for i := range nodes {
		nodes[i] = testNode(i)
		nodes[i].CommTime = float64(i + 1)
	}
	fleet := device.FromNodes(nodes)
	price := nodes[0].PriceForFreq(1e9)
	for _, compact := range []bool{false, true} {
		st := round.NewState(1, nil, 0, n)
		settle := round.Settle{FailurePayment: 0.5, EmptyTimeout: 1, Ledger: testLedger(t, 1e9)}
		for k, joiners := range [][]int{{0, 1, 2, 3, 4, 5}, {1, 4}} {
			prices := make([]float64, n)
			for _, i := range joiners {
				prices[i] = price
			}
			st.Reset(k+1, prices, 0, n)
			for _, stage := range []round.Stage{
				round.Offer{NumNodes: n, Compact: compact}, round.Respond{Fleet: fleet}, round.Execute{}, settle,
			} {
				if err := stage.Run(st); err != nil {
					t.Fatalf("compact=%v round %d %s: %v", compact, k+1, stage.Name(), err)
				}
			}
			if st.Record.Participants != len(joiners) || st.Record.Completed != len(joiners) ||
				len(st.Completed) != len(joiners) {
				t.Fatalf("compact=%v round %d: %d participants, %d completed (%v), want %d each",
					compact, k+1, st.Record.Participants, st.Record.Completed, st.Completed, len(joiners))
			}
			for j, i := range joiners {
				if st.Completed[j] != i {
					t.Fatalf("compact=%v round %d: completed cohort %v, want %v", compact, k+1, st.Completed, joiners)
				}
			}
			for i := 0; i < n; i++ {
				wantComm := 0.0
				if prices[i] > 0 {
					wantComm = nodes[i].CommTime
				}
				if st.CommTimes[i] != wantComm {
					t.Fatalf("compact=%v round %d: node %d CommTimes %v, want %v", compact, k+1, i, st.CommTimes[i], wantComm)
				}
				if !compact && (st.Record.Outcomes[i] == market.OutcomeCompleted) != (prices[i] > 0) {
					t.Fatalf("round %d: node %d outcome %v", k+1, i, st.Record.Outcomes[i])
				}
			}
		}
	}
}

// TestRespondChurnRNGOrder pins the RNG discipline that keeps seeded traces
// bit-identical: nodes are visited in index order, each online node draws
// availability then jitter, and offline nodes consume no jitter draw. The
// reference loop replays the same source independently.
func TestRespondChurnRNGOrder(t *testing.T) {
	const (
		seed         = 42
		availability = 0.5
		jitter       = 0.3
		n            = 8
	)
	nodes := make([]*device.Node, n)
	for i := range nodes {
		nodes[i] = testNode(i)
	}
	price := nodes[0].PriceForFreq(1e9)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = price
	}

	st := round.NewState(1, prices, 0, n)
	if err := (round.Offer{NumNodes: n}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	resp := round.Respond{
		Fleet:        device.FromNodes(nodes),
		Availability: availability,
		CommJitter:   jitter,
		Rng:          rand.New(rand.NewSource(seed)),
	}
	if err := resp.Run(st); err != nil {
		t.Fatalf("Respond: %v", err)
	}

	ref := rand.New(rand.NewSource(seed))
	sawOffline, sawOnline := false, false
	for i, node := range nodes {
		if ref.Float64() >= availability {
			sawOffline = true
			if st.Joined[i] || st.Record.Freqs[i] != 0 {
				t.Fatalf("offline node %d joined", i)
			}
			continue // offline nodes must not consume a jitter draw
		}
		sawOnline = true
		comm := node.CommTime * (1 + (ref.Float64()*2-1)*jitter)
		want := node.BestResponseWithComm(price, comm)
		if st.Joined[i] != want.Participating {
			t.Fatalf("node %d joined=%v, reference says %v", i, st.Joined[i], want.Participating)
		}
		if st.Record.Times[i] != want.Time || st.CommTimes[i] != comm {
			t.Fatalf("node %d: time %v comm %v, reference %v / %v — RNG draw order drifted",
				i, st.Record.Times[i], st.CommTimes[i], want.Time, comm)
		}
	}
	if !sawOffline || !sawOnline {
		t.Fatalf("seed %d exercises only one branch (offline=%v online=%v); pick another",
			seed, sawOffline, sawOnline)
	}
}

func TestExecuteFaultMatrix(t *testing.T) {
	const (
		nominal  = 4.0
		comm     = 1.0
		deadline = 10.0
		backoff  = 0.5
	)
	cases := []struct {
		name        string
		fault       faults.Fault
		haveFault   bool
		deadline    float64
		time        float64
		wantTime    float64
		wantOutcome market.Outcome
	}{
		{
			name: "clean", deadline: deadline, time: nominal,
			wantTime: nominal, wantOutcome: market.OutcomeCompleted,
		},
		{
			name: "crash waits out the deadline", haveFault: true,
			fault: faults.Fault{Kind: faults.Crash}, deadline: deadline, time: nominal,
			wantTime: deadline, wantOutcome: market.OutcomeCrashed,
		},
		{
			name: "crash without deadline keeps nominal time", haveFault: true,
			fault: faults.Fault{Kind: faults.Crash}, time: nominal,
			wantTime: nominal, wantOutcome: market.OutcomeCrashed,
		},
		{
			name: "straggle multiplies time", haveFault: true,
			fault: faults.Fault{Kind: faults.Straggle, Slowdown: 2}, deadline: deadline, time: nominal,
			wantTime: 2 * nominal, wantOutcome: market.OutcomeCompleted,
		},
		{
			name: "straggle past the deadline is cut", haveFault: true,
			fault: faults.Fault{Kind: faults.Straggle, Slowdown: 4}, deadline: deadline, time: nominal,
			wantTime: deadline, wantOutcome: market.OutcomeDeadlineCut,
		},
		{
			name: "drop within retry budget recovers", haveFault: true,
			fault: faults.Fault{Kind: faults.Drop, Attempts: 2}, deadline: deadline, time: nominal,
			wantTime: nominal + 2*(comm+backoff), wantOutcome: market.OutcomeCompleted,
		},
		{
			name: "drop past retry budget is abandoned", haveFault: true,
			fault: faults.Fault{Kind: faults.Drop, Attempts: 5}, deadline: deadline, time: nominal,
			// MaxRetries re-uploads plus the final abandoned attempt's upload.
			wantTime: nominal + 2*(comm+backoff) + comm, wantOutcome: market.OutcomeDropped,
		},
		{
			name: "corrupt lands on time", haveFault: true,
			fault: faults.Fault{Kind: faults.Corrupt}, deadline: deadline, time: nominal,
			wantTime: nominal, wantOutcome: market.OutcomeCorrupted,
		},
		{
			name: "slow clean node is deadline-cut", deadline: deadline, time: deadline + 3,
			wantTime: deadline, wantOutcome: market.OutcomeDeadlineCut,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := round.NewState(1, []float64{1}, 0, 1)
			if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
				t.Fatalf("Offer: %v", err)
			}
			st.Joined[0] = true
			st.Record.Participants = 1
			st.Record.Times[0] = tc.time
			st.Record.Outcomes[0] = market.OutcomeCompleted
			st.CommTimes[0] = comm

			var sched faults.Schedule
			if tc.haveFault {
				sched = faults.Script{1: {0: tc.fault}}
			}
			x := round.Execute{Faults: sched, Deadline: tc.deadline, MaxRetries: 2, RetryBackoff: backoff}
			if err := x.Run(st); err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if st.Record.Times[0] != tc.wantTime {
				t.Errorf("time = %v, want %v", st.Record.Times[0], tc.wantTime)
			}
			if st.Record.Outcomes[0] != tc.wantOutcome {
				t.Errorf("outcome = %v, want %v", st.Record.Outcomes[0], tc.wantOutcome)
			}
		})
	}
}

// TestExecuteDropRetryTime pins the drop-retry arithmetic: n re-uploads
// within the budget charge the single-multiply closed form
// n·(comm+backoff), bit for bit, and a drop past the budget charges
// MaxRetries re-uploads plus the abandoned attempt's upload.
func TestExecuteDropRetryTime(t *testing.T) {
	const (
		nominal, comm, backoff = 40.0, 7.7, 0.3
		maxRetries             = 9
	)
	run := func(attempts int) (float64, market.Outcome) {
		st := round.NewState(1, []float64{1}, 0, 1)
		if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
			t.Fatalf("Offer: %v", err)
		}
		st.Joined[0] = true
		st.Record.Participants = 1
		st.Record.Times[0] = nominal
		st.Record.Outcomes[0] = market.OutcomeCompleted
		st.CommTimes[0] = comm
		x := round.Execute{
			Faults:       faults.Script{1: {0: {Kind: faults.Drop, Attempts: attempts}}},
			MaxRetries:   maxRetries,
			RetryBackoff: backoff,
		}
		if err := x.Run(st); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return st.Record.Times[0], st.Record.Outcomes[0]
	}
	for n := 0; n <= maxRetries; n++ {
		got, outcome := run(n)
		if want := nominal + float64(n)*(comm+backoff); got != want || outcome != market.OutcomeCompleted {
			t.Errorf("%d drops: time %v outcome %v, want %v completed", n, got, outcome, want)
		}
	}
	got, outcome := run(maxRetries + 3)
	if want := nominal + float64(maxRetries)*(comm+backoff) + comm; got != want || outcome != market.OutcomeDropped {
		t.Errorf("drops past the budget: time %v outcome %v, want %v dropped", got, outcome, want)
	}
}

func TestExecuteSkipsAbsentNodes(t *testing.T) {
	st := round.NewState(1, []float64{1}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	// Node 0 declined; a scripted fault against it must not resurrect it.
	x := round.Execute{Faults: faults.Script{1: {0: {Kind: faults.Crash}}}, Deadline: 10}
	if err := x.Run(st); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st.Record.Times[0] != 0 || st.Record.Outcomes[0] != market.OutcomeAbsent {
		t.Fatalf("fault applied to absent node: time %v, outcome %v",
			st.Record.Times[0], st.Record.Outcomes[0])
	}
}

func TestSettleEmptyOfferChargesWaste(t *testing.T) {
	const timeout = 7.5
	ledger := testLedger(t, 100)
	st := round.NewState(1, []float64{0}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	s := round.Settle{FailurePayment: 0.5, EmptyTimeout: timeout, Ledger: ledger}
	if err := s.Run(st); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if st.Status != round.StatusEmpty {
		t.Fatalf("status = %v, want %v", st.Status, round.StatusEmpty)
	}
	if ledger.WastedTime() != timeout {
		t.Fatalf("wasted time %v, want the %v empty-offer timeout", ledger.WastedTime(), timeout)
	}
	if ledger.NumRounds() != 0 || ledger.Remaining() != 100 {
		t.Fatalf("empty round touched the ledger: %d rounds, %v remaining",
			ledger.NumRounds(), ledger.Remaining())
	}
	if err := propcheck.CheckLedger(ledger); err != nil {
		t.Fatalf("ledger law violated after empty round: %v", err)
	}
}

func TestSettleBudgetExhaustion(t *testing.T) {
	ledger := testLedger(t, 10)
	st := round.NewState(1, []float64{1}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	st.Joined[0] = true
	st.Record.Participants = 1
	st.Record.Times[0] = 1
	st.Record.Outcomes[0] = market.OutcomeCompleted
	st.ContractPay[0] = 10.5 // worst case exceeds the remaining 10
	st.Contracted = 10.5

	s := round.Settle{FailurePayment: 0.5, EmptyTimeout: 1, Ledger: ledger}
	if err := s.Run(st); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if st.Status != round.StatusBudgetExhausted {
		t.Fatalf("status = %v, want %v", st.Status, round.StatusBudgetExhausted)
	}
	if st.Record.Payment != 0 || ledger.Remaining() != 10 || ledger.NumRounds() != 0 {
		t.Fatalf("discarded round still spent money: payment %v, remaining %v, rounds %d",
			st.Record.Payment, ledger.Remaining(), ledger.NumRounds())
	}
}

func TestSettleFailurePaymentAccounting(t *testing.T) {
	const failurePayment = 0.25
	ledger := testLedger(t, 100)
	st := round.NewState(1, []float64{2, 3, 4}, 0, 3)
	if err := (round.Offer{NumNodes: 3}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	// Node 0 completed, node 1 crashed, node 2 declined.
	st.Joined[0], st.Joined[1] = true, true
	st.Record.Participants = 2
	st.Record.Freqs[0], st.Record.Freqs[1] = 1.5, 2.5
	st.Record.Times[0], st.Record.Times[1] = 3, 5
	st.Record.Outcomes[0] = market.OutcomeCompleted
	st.Record.Outcomes[1] = market.OutcomeCrashed
	st.ContractPay[0] = st.Record.Prices[0] * st.Record.Freqs[0]
	st.ContractPay[1] = st.Record.Prices[1] * st.Record.Freqs[1]
	st.Contracted = st.ContractPay[0] + st.ContractPay[1]

	s := round.Settle{FailurePayment: failurePayment, EmptyTimeout: 1, Ledger: ledger}
	if err := s.Run(st); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if st.Status != round.StatusPending {
		t.Fatalf("settled round left the chain early: status %v", st.Status)
	}
	want := st.ContractPay[0] + failurePayment*st.ContractPay[1]
	if st.Record.Payment != want {
		t.Fatalf("payment %v, want completed + %v·failed = %v", st.Record.Payment, failurePayment, want)
	}
	if len(st.Completed) != 1 || st.Completed[0] != 0 || st.Record.Completed != 1 {
		t.Fatalf("completed cohort %v (count %d), want [0]", st.Completed, st.Record.Completed)
	}
	if err := propcheck.CheckRoundAccounting(&st.Record, failurePayment); err != nil {
		t.Fatalf("round accounting law violated: %v", err)
	}
}

func TestCommitQuorumGate(t *testing.T) {
	const prevAcc = 0.4
	for _, tc := range []struct {
		name      string
		completed []int
		quorum    int
		wantCalls int
		wantAcc   float64
	}{
		{name: "quorum missed holds accuracy", completed: []int{0}, quorum: 2, wantCalls: 0, wantAcc: prevAcc},
		{name: "quorum met advances", completed: []int{0, 2}, quorum: 2, wantCalls: 1, wantAcc: 0.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger := testLedger(t, 100)
			model := &stubModel{acc: 0.5, step: 0.1}
			st := round.NewState(1, []float64{1, 1, 1}, prevAcc, 3)
			if err := (round.Offer{NumNodes: 3}).Run(st); err != nil {
				t.Fatalf("Offer: %v", err)
			}
			for _, i := range tc.completed {
				st.Joined[i] = true
				st.Record.Participants++
				st.Record.Freqs[i], st.Record.Times[i] = 1, 1
				st.Record.Outcomes[i] = market.OutcomeCompleted
			}
			st.Completed = tc.completed
			st.Record.Completed = len(tc.completed)

			c := round.Commit{Accuracy: model, Ledger: ledger, MinQuorum: tc.quorum}
			if err := c.Run(st); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if st.Status != round.StatusCommitted {
				t.Fatalf("status = %v, want %v", st.Status, round.StatusCommitted)
			}
			if len(model.calls) != tc.wantCalls {
				t.Fatalf("accuracy model advanced %d times, want %d", len(model.calls), tc.wantCalls)
			}
			if st.Record.Accuracy != tc.wantAcc {
				t.Fatalf("recorded accuracy %v, want %v", st.Record.Accuracy, tc.wantAcc)
			}
			if ledger.NumRounds() != 1 {
				t.Fatalf("ledger recorded %d rounds, want 1 (missed quorum still commits)", ledger.NumRounds())
			}
		})
	}
}

// TestCommitSurfacesLedgerError: a record the ledger rejects fails Commit
// with the ledger's own error, so the pipeline's "commit:" stage prefix is
// the only one in the chain.
func TestCommitSurfacesLedgerError(t *testing.T) {
	st := round.NewState(1, []float64{1}, 0, 1)
	if err := (round.Offer{NumNodes: 1}).Run(st); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	st.Record.Payment = math.Inf(1)
	c := round.Commit{Accuracy: &stubModel{}, Ledger: testLedger(t, 10), MinQuorum: 1}
	err := c.Run(st)
	if err == nil || strings.Contains(err.Error(), "commit") || !strings.HasPrefix(err.Error(), "market:") {
		t.Fatalf("Commit error %v, want the ledger's error unwrapped", err)
	}
}

func TestPipelineStopsAtTerminalStatus(t *testing.T) {
	nodes := []*device.Node{testNode(0), testNode(1)}
	model := &stubModel{acc: 0.5, step: 0.1}
	ledger := testLedger(t, 100)
	fleet := device.FromNodes(nodes)
	p := &round.Pipeline{
		Offer:   round.Offer{NumNodes: fleet.Len()},
		Respond: round.Respond{Fleet: fleet},
		Settle:  round.Settle{EmptyTimeout: 3, Ledger: ledger},
		Commit:  round.Commit{Accuracy: model, Ledger: ledger, MinQuorum: 1},
	}
	// A zero price attracts nobody: Settle must end the round and Commit
	// must never see it.
	st := round.NewState(1, []float64{0, 0}, 0.5, 2)
	if err := p.Run(st); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Status != round.StatusEmpty {
		t.Fatalf("status = %v, want %v", st.Status, round.StatusEmpty)
	}
	if len(model.calls) != 0 || ledger.NumRounds() != 0 {
		t.Fatalf("terminal status leaked into Commit: %d advances, %d ledger rounds",
			len(model.calls), ledger.NumRounds())
	}
	if ledger.WastedTime() != 3 {
		t.Fatalf("wasted time %v, want the empty-offer timeout 3", ledger.WastedTime())
	}
}

func TestStagesOrder(t *testing.T) {
	var p round.Pipeline
	want := []string{"offer", "respond", "execute", "settle", "commit"}
	stages := p.Stages()
	if len(stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.Name() != want[i] {
			t.Fatalf("stage %d is %q, want %q", i, s.Name(), want[i])
		}
	}
}

// TestPipelineEconomicLaws drives randomized fleets, prices, churn, and
// fault schedules through the full chain and checks every committed round
// against the propcheck economic laws (accounting, time) and the final
// ledger against budget feasibility.
func TestPipelineEconomicLaws(t *testing.T) {
	propcheck.Trials(t, 0x70697065, 60, func(t *testing.T, rng *rand.Rand, trial int) {
		n := 2 + rng.Intn(5)
		nodes := propcheck.RandomFleet(rng, n)

		availability := 1.0
		if rng.Intn(2) == 0 {
			availability = propcheck.Uniform(rng, 0.3, 0.95)
		}
		jitter := 0.0
		if rng.Intn(2) == 0 {
			jitter = propcheck.Uniform(rng, 0.05, 0.5)
		}
		var sched faults.Schedule
		if rates := propcheck.RandomRates(rng); rates.Any() {
			sampler, err := faults.NewSampler(rates, rng.Int63())
			if err != nil {
				t.Fatalf("NewSampler: %v", err)
			}
			sched = sampler
		}
		deadline := 0.0
		if rng.Intn(2) == 0 {
			deadline = propcheck.Uniform(rng, 5, 120)
		}
		failurePayment := propcheck.Uniform(rng, 0, 1)
		ledger := testLedger(t, propcheck.Uniform(rng, 10, 500))
		fleet := device.FromNodes(nodes)
		p := &round.Pipeline{
			Offer: round.Offer{NumNodes: fleet.Len()},
			Respond: round.Respond{
				Fleet:        fleet,
				Availability: availability,
				CommJitter:   jitter,
				Rng:          rand.New(rand.NewSource(rng.Int63())),
			},
			Execute: round.Execute{
				Faults:       sched,
				Deadline:     deadline,
				RetryBackoff: propcheck.Uniform(rng, 0, 2),
				MaxRetries:   rng.Intn(4),
			},
			Settle: round.Settle{
				FailurePayment: failurePayment,
				EmptyTimeout:   propcheck.Uniform(rng, 1, 60),
				Ledger:         ledger,
			},
			Commit: round.Commit{
				Accuracy:  &stubModel{acc: 0.3, step: 0.01},
				Ledger:    ledger,
				MinQuorum: 1 + rng.Intn(n),
			},
		}

		lastAcc := 0.3
		for k := 1; k <= 25; k++ {
			prices := make([]float64, n)
			for i, node := range nodes {
				// Mix interior prices with deliberate zero offers so empty
				// and partially-joined rounds both occur.
				if rng.Intn(5) == 0 {
					continue
				}
				prices[i] = node.PriceForFreq(propcheck.Uniform(rng, node.FreqMin, node.FreqMax))
			}
			st := round.NewState(k, prices, lastAcc, n)
			if err := p.Run(st); err != nil {
				t.Fatalf("round %d: %v", k, err)
			}
			switch st.Status {
			case round.StatusCommitted:
				if err := propcheck.CheckRoundAccounting(&st.Record, failurePayment); err != nil {
					t.Fatalf("round %d accounting: %v", k, err)
				}
				if err := propcheck.CheckTimeLaws(&st.Record); err != nil {
					t.Fatalf("round %d time laws: %v", k, err)
				}
				lastAcc = st.Record.Accuracy
			case round.StatusEmpty:
				// Nothing recorded; the waste charge is checked by CheckLedger.
			case round.StatusBudgetExhausted:
				k = 26 // episode over
			default:
				t.Fatalf("round %d ended with non-terminal status %v", k, st.Status)
			}
		}
		if err := propcheck.CheckLedger(ledger); err != nil {
			t.Fatalf("ledger laws: %v", err)
		}
	})
}
