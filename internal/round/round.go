// Package round decomposes one federated training round into an explicit
// stage chain:
//
//	Offer → Respond → Execute → Settle → Commit
//
// Each stage is a small type with its own inputs and outputs, operating on
// a shared State blackboard:
//
//   - Offer validates the posted price vector and sizes the round record.
//   - Respond plays every node's best response (Eqn. 11), including the
//     availability and bandwidth-jitter draws of the churn model.
//   - Execute applies the injected fault schedule (crash, straggle, drop,
//     corrupt) and the server's round deadline to the joined nodes.
//   - Settle computes the budget side: the actual payment under the
//     failure-payment rule, the completion quorum inputs, the empty-offer
//     waste charge, and the worst-case (contracted) budget feasibility
//     check of Sec. V-A.
//   - Commit advances the accuracy model when the quorum is met and
//     records the round in the ledger.
//
// The chain reproduces edgeenv's original monolithic Step bit-for-bit:
// stages iterate nodes in index order, consume the shared RNG in the same
// sequence (availability before jitter, per node), and accumulate payments
// in the same floating-point order. edgeenv retains the MDP wrapper
// (states, rewards, termination) on top of this pipeline; experiment
// sweeps therefore parallelize across environments without touching the
// per-round economics.
//
// # Fleet-scale batch execution
//
// Internally the stages are vectorized over the struct-of-arrays
// device.Fleet: Respond's Eqn. (11) best response and Execute's failure
// pipeline are elementwise per node, so they shard over the bounded worker
// pool (mat.ParallelRange) — bit-identical at any worker count because
// each element is computed exactly once, independent of banding. Every
// reduction (participant count, contracted-payment sum, the actual
// payment, and the streamed T_k = max_i T_{i,k} / Σ_i T_{i,k} aggregates)
// runs as a single sequential pass in ascending node order — the fixed
// reduction order that keeps seeded traces byte-identical whether the
// elementwise work ran on one worker or sixteen. RNG-consuming churn
// draws always run in a sequential pre-pass, preserving the draw stream.
//
// In compact mode (Config.Compact) the per-node record vectors are not
// materialized at all: stages write into reusable State scratch columns
// and the committed market.Round carries only streamed aggregates, so the
// steady state allocates nothing proportional to N — the property that
// makes million-node rounds tractable (see DESIGN.md §13).
package round

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
	"chiron/internal/mat"
)

// respondFlopsPerNode estimates the scalar-operation cost of one node's
// best response, the work hint ParallelRange uses to decide whether the
// node axis is worth sharding.
const respondFlopsPerNode = 24

// executeFlopsPerNode estimates one node's failure-pipeline cost.
const executeFlopsPerNode = 8

// Status reports how a round left the pipeline.
type Status int

// The terminal pipeline statuses. StatusPending marks a State still
// flowing through the chain.
const (
	StatusPending Status = iota
	// StatusCommitted: the round trained (or missed quorum), was paid for,
	// and is recorded in the ledger.
	StatusCommitted
	// StatusEmpty: the offer attracted no participants; the server's
	// timeout was charged as waste and no round was recorded.
	StatusEmpty
	// StatusBudgetExhausted: the worst-case contracted payment exceeds the
	// remaining budget; the round is discarded wholesale (Sec. V-A).
	StatusBudgetExhausted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusCommitted:
		return "committed"
	case StatusEmpty:
		return "empty"
	case StatusBudgetExhausted:
		return "budget-exhausted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// State is the blackboard one round's data flows through. Stages populate
// it in chain order; the fields each stage owns are documented on the
// stage types. A State is reusable: Reset repositions it for the next
// round without reallocating its per-node buffers, which is what keeps
// steady-state allocations independent of the fleet size.
type State struct {
	// Index is k, the 1-based round number (drives the fault schedule).
	Index int
	// Prices is the per-node offer posted by the mechanism.
	Prices []float64
	// PrevAccuracy is A(ω_{k−1}); Commit leaves the post-round accuracy in
	// Record.Accuracy (unchanged when the quorum is missed).
	PrevAccuracy float64

	// Record is the market round being assembled. In compact mode it
	// carries only streamed aggregates (NumNodes/MaxTime/SumTime plus the
	// scalar counters); otherwise it holds the full per-node vectors.
	Record market.Round
	// Compact marks the record as aggregate-only; it is set by the Offer
	// stage from its configuration.
	Compact bool
	// Joined marks nodes whose best response accepted the offer.
	Joined []bool
	// Departing marks nodes the churn schedule removes mid-round: present
	// at the Offer stage, gone before their upload lands.
	Departing []bool
	// ContractPay holds each joiner's full contracted payment p_i·ζ_i.
	ContractPay []float64
	// CommTimes holds each joiner's (possibly jittered) upload time, the
	// unit of retry churn in Execute.
	CommTimes []float64
	// Contracted is Σ ContractPay: the worst-case round payment the budget
	// feasibility check uses.
	Contracted float64
	// Completed lists node indices whose updates entered aggregation.
	Completed []int
	// Status is the round's terminal disposition (set by Settle or Commit).
	Status Status

	// Compact-mode scratch columns: the per-node working set that replaces
	// the record vectors. They are sized by Offer and reused across
	// rounds.
	scrFreqs, scrTimes []float64
	scrOutcomes        []market.Outcome
	// Churn-draw scratch for Respond's sequential RNG pre-pass.
	scrEligible []bool
	scrComm     []float64
}

// NewState positions a fresh blackboard for round index over n nodes.
// prices is retained by reference until Offer clones it into the record.
func NewState(index int, prices []float64, prevAccuracy float64, n int) *State {
	st := &State{}
	st.Reset(index, prices, prevAccuracy, n)
	return st
}

// Reset repositions the blackboard for a new round over n nodes, reusing
// every buffer that already has the right length — after the first round
// of an episode, Reset allocates nothing. prices is retained by reference
// until Offer clones it into the record (vector mode) or reads it in
// place (compact mode).
func (st *State) Reset(index int, prices []float64, prevAccuracy float64, n int) {
	st.Index = index
	st.Prices = prices
	st.PrevAccuracy = prevAccuracy
	st.Record = market.Round{}
	st.Status = StatusPending
	st.Contracted = 0
	st.Completed = st.Completed[:0]
	st.Joined = ensureBools(st.Joined, n)
	st.Departing = ensureBools(st.Departing, n)
	st.ContractPay = mat.EnsureVec(st.ContractPay, n)
	st.CommTimes = mat.EnsureVec(st.CommTimes, n)
	// Joined, ContractPay, and the frequency/time columns are fully
	// overwritten by Respond's elementwise pass; Departing and CommTimes
	// are written sparsely (present/joined nodes only), so stale entries
	// from the previous round must be cleared here.
	for i := range st.Departing {
		st.Departing[i] = false
	}
	for i := range st.CommTimes {
		st.CommTimes[i] = 0
	}
}

// ensureBools returns v when it already has length n, else a fresh mask.
func ensureBools(v []bool, n int) []bool {
	if len(v) == n {
		return v
	}
	return make([]bool, n)
}

// freqs returns the active per-node frequency column: the record's own
// vector in vector mode, reusable scratch in compact mode.
func (st *State) freqs() []float64 {
	if st.Compact {
		return st.scrFreqs
	}
	return st.Record.Freqs
}

// times returns the active per-node round-time column.
func (st *State) times() []float64 {
	if st.Compact {
		return st.scrTimes
	}
	return st.Record.Times
}

// outcomes returns the active per-node outcome column.
func (st *State) outcomes() []market.Outcome {
	if st.Compact {
		return st.scrOutcomes
	}
	return st.Record.Outcomes
}

// Stage is one link of the round chain. Run mutates the State in place;
// an error aborts the round (the caller decides episode semantics).
type Stage interface {
	// Name identifies the stage in errors and logs.
	Name() string
	// Run executes the stage against the blackboard.
	Run(st *State) error
}

// Offer opens the round: it validates the posted price vector against the
// fleet size and sizes the record's per-node vectors (vector mode) or the
// blackboard's reusable scratch columns (compact mode).
type Offer struct {
	// NumNodes is the fleet size N every offer must cover.
	NumNodes int
	// Compact switches the round to aggregate-only records: no per-node
	// vectors are allocated, the committed market.Round carries streamed
	// reductions, and the posted prices are read in place instead of
	// cloned.
	Compact bool
}

// Name implements Stage.
func (o Offer) Name() string { return "offer" }

// Run implements Stage.
func (o Offer) Run(st *State) error {
	if len(st.Prices) != o.NumNodes {
		return fmt.Errorf("%d prices for %d nodes", len(st.Prices), o.NumNodes)
	}
	if o.Compact {
		st.Compact = true
		st.Record = market.Round{NumNodes: o.NumNodes}
		st.scrFreqs = mat.EnsureVec(st.scrFreqs, o.NumNodes)
		st.scrTimes = mat.EnsureVec(st.scrTimes, o.NumNodes)
		if len(st.scrOutcomes) != o.NumNodes {
			st.scrOutcomes = make([]market.Outcome, o.NumNodes)
		}
		// Freqs/Times are fully overwritten by Respond; Outcomes is
		// written sparsely, so clear stale entries from the last round.
		for i := range st.scrOutcomes {
			st.scrOutcomes[i] = market.OutcomeAbsent
		}
		return nil
	}
	st.Compact = false
	st.Record = market.Round{
		Prices:   mat.CloneVec(st.Prices),
		Freqs:    make([]float64, o.NumNodes),
		Times:    make([]float64, o.NumNodes),
		Outcomes: make([]market.Outcome, o.NumNodes),
	}
	return nil
}

// BandwidthSchedule models a time-varying uplink regime: Factor(round)
// scales every node's nominal upload time for that round, before the
// per-node jitter draw. Implementations must be pure functions of the
// round index so scheduled regimes replay exactly. Factor must return a
// positive value; 1 is the nominal bandwidth.
type BandwidthSchedule interface {
	Factor(round int) float64
}

// DrawSource replays recorded environment draws: instead of consulting the
// churn schedule and the RNG, Respond asks the source for the round's
// resolved (eligible, departing, commTimes) columns. Eligible marks nodes
// that receive the offer (present and available), Departing the mid-round
// departures, and CommTimes each eligible node's post-jitter upload time.
// The returned slices are read for the current round only and must each
// have length n. A source may synthesize draws for rounds beyond its
// recording (counterfactual replays can outlive the recorded episode) or
// return an error to fail the round.
type DrawSource interface {
	RoundDraws(round, n int) (eligible, departing []bool, commTimes []float64, err error)
}

// DrawRecorder observes each round's resolved draw columns — the exact
// inputs a DrawSource must reproduce. The slices are owned by the pipeline
// and reused across rounds; implementations must copy. CommTimes entries of
// non-eligible nodes are zeroed before the call so recordings carry no
// stale scratch values.
type DrawRecorder interface {
	RecordDraws(round int, eligible, departing []bool, commTimes []float64)
}

// Respond plays the fleet's side of the round: per node, a fleet-membership
// lookup against the churn schedule, an availability draw, a bandwidth-
// jitter draw, and the Eqn. (11) best response to the posted price. It
// fills Joined, Departing, Freqs, the nominal Times (compute + jittered
// upload), ContractPay, CommTimes, Contracted, and Participants.
//
// RNG discipline: the draw pre-pass visits nodes in index order; each
// available node consumes its availability draw before its jitter draw,
// and offline nodes consume no jitter draw — the exact sequence the
// monolithic Step used, so seeded traces stay bit-identical. Churn-absent
// nodes are skipped before any draw — they consume nothing, exactly like
// offline nodes — so a nil churn schedule leaves the draw stream
// untouched. With no churn schedule and no draws enabled, the pre-pass is
// skipped entirely and the fleet's nominal comm-time column is used as
// is.
//
// The best response itself is the batched device.Fleet kernel sharded
// over the worker pool; the participant count and contracted-payment sum
// are then reduced in a single ascending-index pass, so the result is
// bit-identical to the per-node scalar loop at any worker count.
type Respond struct {
	// Fleet is the struct-of-arrays fleet the batch kernels run over
	// (required, never mutated).
	Fleet *device.Fleet
	// Churn is the fleet-membership schedule (nil = fixed fleet). A node
	// absent at this round's Offer stage is skipped entirely; a node the
	// schedule departs mid-round still responds (it is present at the
	// Offer) and is marked Departing for Execute to fail.
	Churn faults.ChurnSchedule
	// Availability is the per-round probability a node is reachable; 0 or 1
	// disables the draw (always available).
	Availability float64
	// CommJitter scales each node's upload time by a uniform factor in
	// [1−CommJitter, 1+CommJitter]; 0 disables the draw.
	CommJitter float64
	// Rng drives the availability and jitter draws. Required when either
	// is enabled, unless Draws replays them instead.
	Rng *rand.Rand
	// Bandwidth scales the fleet's nominal upload times per round (nil =
	// constant nominal bandwidth). The factor applies before the jitter
	// draw, so jitter stays a relative perturbation of the regime.
	Bandwidth BandwidthSchedule
	// Draws, when non-nil, replaces the entire draw pre-pass: membership,
	// availability, and jitter come from the source verbatim and the RNG,
	// churn schedule, and bandwidth regime are not consulted. The replay
	// hook.
	Draws DrawSource
	// Recorder, when non-nil, observes every round's resolved draw columns
	// (forcing the pre-pass so the columns exist even for a clean fleet).
	// The record hook.
	Recorder DrawRecorder
}

// Name implements Stage.
func (r Respond) Name() string { return "respond" }

// Run implements Stage.
func (r Respond) Run(st *State) error {
	fleet := r.Fleet
	n := fleet.Len()

	// Phase 1 — sequential churn/draw pre-pass. Only this phase consumes
	// RNG, so it must visit nodes in index order; it is skipped wholesale
	// when the round has no membership schedule and no draws, leaving the
	// nominal comm-time column to be read in place. A DrawSource replaces
	// the pre-pass entirely: the replayed columns carry the resolved
	// membership, availability, and jitter of the recorded run, so the RNG
	// is never touched. A DrawRecorder forces the pre-pass (consuming no
	// extra RNG) so the columns exist even for a clean fleet.
	availOn := r.Availability > 0 && r.Availability < 1
	jitterOn := r.CommJitter > 0
	commTimes := fleet.CommTime
	var eligible []bool
	if r.Draws != nil {
		elig, departing, comm, err := r.Draws.RoundDraws(st.Index, n)
		if err != nil {
			return fmt.Errorf("replay draws for round %d: %w", st.Index, err)
		}
		if len(elig) != n || len(comm) != n || (departing != nil && len(departing) != n) {
			return fmt.Errorf("replay draws for round %d: columns sized %d/%d/%d, want %d",
				st.Index, len(elig), len(departing), len(comm), n)
		}
		eligible, commTimes = elig, comm
		if departing != nil {
			copy(st.Departing, departing)
		}
	} else if r.Churn != nil || availOn || jitterOn || r.Bandwidth != nil || r.Recorder != nil {
		bw := 1.0
		if r.Bandwidth != nil {
			if bw = r.Bandwidth.Factor(st.Index); bw <= 0 {
				return fmt.Errorf("bandwidth factor %v at round %d, want > 0", bw, st.Index)
			}
		}
		st.scrEligible = ensureBools(st.scrEligible, n)
		st.scrComm = mat.EnsureVec(st.scrComm, n)
		eligible = st.scrEligible
		commTimes = st.scrComm
		for i := 0; i < n; i++ {
			eligible[i] = false
			commTimes[i] = 0
			if r.Churn != nil {
				present, departs := r.Churn.Membership(st.Index, i)
				if !present {
					continue // outside the fleet this round: no draws, no offer
				}
				st.Departing[i] = departs
			}
			if availOn && r.Rng.Float64() >= r.Availability {
				continue // node offline this round
			}
			commTime := fleet.CommTime[i] * bw
			if jitterOn {
				commTime *= 1 + (r.Rng.Float64()*2-1)*r.CommJitter
			}
			commTimes[i] = commTime
			eligible[i] = true
		}
	}
	if r.Recorder != nil && r.Draws == nil {
		r.Recorder.RecordDraws(st.Index, eligible, st.Departing, commTimes)
	}

	// Phase 2 — the batched Eqn. (11) best response, sharded over the
	// worker pool. Elementwise: bit-identical at any worker count.
	out := device.BatchResponse{
		Joined:  st.Joined,
		Freq:    st.freqs(),
		Time:    st.times(),
		Payment: st.ContractPay,
	}
	prices := st.Prices
	mat.ParallelRange(n, n*respondFlopsPerNode, func(lo, hi int) {
		fleet.BestResponseRange(lo, hi, prices, commTimes, eligible, &out)
	})

	// Phase 3 — streaming reduction in ascending node order: the fixed
	// order that keeps Contracted bit-identical to the scalar loop.
	outcomes := st.outcomes()
	participants := 0
	var contracted float64
	for i := 0; i < n; i++ {
		if !st.Joined[i] {
			continue
		}
		participants++
		outcomes[i] = market.OutcomeCompleted
		st.CommTimes[i] = commTimes[i]
		contracted += st.ContractPay[i]
	}
	st.Record.Participants = participants
	st.Contracted = contracted
	return nil
}

// Execute runs the joined nodes through the failure pipeline: a mid-round
// departure first (the node left the fleet — it goes silent like a crash,
// preempting whatever fault was scheduled for it), then the injected fault
// schedule (a Crash silences the node until the deadline or its nominal
// finish, a Straggle multiplies its time, a Drop burns retry churn and
// abandons the node past the retry budget, a Corrupt upload is rejected at
// sanitization), then the server's straggler deadline, which cuts any node
// still running. It rewrites Times and Outcomes in place.
//
// The per-node failure transform is pure (fault schedules answer
// hash-derived, read-only queries), so it shards over the worker pool;
// each node's time and outcome are written exactly once, keeping the
// result bit-identical at any worker count.
type Execute struct {
	// Faults schedules per-node, per-round failures (nil disables).
	Faults faults.Schedule
	// Deadline is the server's straggler cutoff in seconds (0 disables).
	Deadline float64
	// Retry is the dropped-upload retry policy: MaxRetries bounds
	// re-requests, Base/Factor/Max shape the per-attempt backoff pause.
	Retry faults.Backoff
}

// Name implements Stage.
func (x Execute) Name() string { return "execute" }

// Run implements Stage.
func (x Execute) Run(st *State) error {
	times := st.times()
	outcomes := st.outcomes()
	index := st.Index
	n := len(st.Joined)
	mat.ParallelRange(n, n*executeFlopsPerNode, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !st.Joined[i] {
				continue
			}
			t := times[i]
			outcome := market.OutcomeCompleted
			if st.Departing != nil && st.Departing[i] {
				// The node accepted the offer, then left the fleet
				// mid-round: like a crash, the server learns only by
				// waiting — until the deadline when one is set, else the
				// node's expected finish.
				outcome = market.OutcomeDeparted
				if x.Deadline > 0 {
					t = x.Deadline
				}
			} else if x.Faults != nil {
				if f, ok := x.Faults.At(index, i); ok {
					switch f.Kind {
					case faults.Crash:
						outcome = market.OutcomeCrashed
						// A crashed node goes silent: the server learns of
						// the failure only by waiting — until the deadline
						// when one is set, else until the node's expected
						// finish time.
						if x.Deadline > 0 {
							t = x.Deadline
						}
					case faults.Straggle:
						if f.Slowdown > 1 {
							t *= f.Slowdown
						}
					case faults.Drop:
						// Each lost upload costs a re-upload plus backoff;
						// the node is abandoned once the retry budget runs
						// out.
						retries := f.Attempts
						if retries > x.Retry.MaxRetries {
							retries = x.Retry.MaxRetries
							outcome = market.OutcomeDropped
						}
						t += x.Retry.RetryTime(st.CommTimes[i], retries)
						if outcome == market.OutcomeDropped {
							// The final, abandoned attempt still burned its
							// upload time before the server gave up.
							t += st.CommTimes[i]
						}
					case faults.Corrupt:
						// The upload lands on time but fails sanitization.
						outcome = market.OutcomeCorrupted
					}
				}
			}
			if x.Deadline > 0 && t > x.Deadline {
				t = x.Deadline
				if outcome == market.OutcomeCompleted {
					outcome = market.OutcomeDeadlineCut
				}
			}
			times[i] = t
			outcomes[i] = outcome
		}
	})
	return nil
}

// Settle closes the round's economics. An offer nobody accepted charges
// the server EmptyTimeout of wall-clock waste and ends the round
// (StatusEmpty). Otherwise the worst-case contracted payment is checked
// against the remaining budget — an overrunning round is discarded
// wholesale per Sec. V-A (StatusBudgetExhausted) — and the actual payment
// is accumulated in node order: full price·frequency for completed nodes,
// the FailurePayment fraction for failed ones, keeping the ledger exact
// under churn. Settle also fills Completed, the quorum input Commit needs,
// and — in compact mode — streams the T_k = max_i T_{i,k} and Σ_i T_{i,k}
// reductions into the record in the same single ascending pass, so no
// per-node outcome ever needs to be materialized.
type Settle struct {
	// FailurePayment ∈ [0,1] is the fraction of a failed node's contracted
	// payment the server still pays.
	FailurePayment float64
	// EmptyTimeout is the wall-clock cost of an offer with no takers.
	EmptyTimeout float64
	// Ledger is the episode budget ledger (waste and feasibility).
	Ledger *market.Ledger
}

// Name implements Stage.
func (s Settle) Name() string { return "settle" }

// Run implements Stage.
func (s Settle) Run(st *State) error {
	// An offer that attracts no participants trains nothing but still
	// costs the server a full offer timeout of wall-clock time before it
	// can repost — otherwise "price everyone out" would be a free skip a
	// degenerate policy could idle on.
	if st.Record.Participants == 0 {
		if err := s.Ledger.AddWaste(s.EmptyTimeout); err != nil {
			return fmt.Errorf("empty round: %w", err)
		}
		st.Status = StatusEmpty
		return nil
	}
	// Budget check happens before any training: it uses the full
	// contracted payment — what the server owes if every joiner completes
	// — so the commitment is affordable in the worst case; the actual
	// payment (failures refunded) can only be smaller.
	if st.Contracted > s.Ledger.Remaining() {
		st.Status = StatusBudgetExhausted
		return nil
	}
	times := st.times()
	outcomes := st.outcomes()
	var maxTime, sumTime float64
	for i := range st.Joined {
		if !st.Joined[i] {
			continue
		}
		if outcomes[i] == market.OutcomeCompleted {
			st.Record.Payment += st.ContractPay[i]
			st.Completed = append(st.Completed, i)
		} else {
			st.Record.Payment += st.ContractPay[i] * s.FailurePayment
		}
		t := times[i]
		if t > maxTime {
			maxTime = t
		}
		sumTime += t
	}
	st.Record.Completed = len(st.Completed)
	if st.Compact {
		// Declined nodes contribute T_{i,k} = 0, so reducing over the
		// joined set only is exact: x + 0 = x in every term the full-fleet
		// scan would add.
		st.Record.MaxTime = maxTime
		st.Record.SumTime = sumTime
	}
	return nil
}

// Commit finishes the round: when the completion quorum is met the
// accuracy model advances on the completed cohort, otherwise the global
// model (and accuracy) stays where it was; either way the round — its
// time spent and failure payments owed — is recorded in the ledger.
type Commit struct {
	// Accuracy produces A(ω_k) from the completed cohort.
	Accuracy accuracy.Model
	// Ledger records the round and deducts its payment.
	Ledger *market.Ledger
	// MinQuorum is the minimum completed updates for model progress (≥ 1).
	MinQuorum int
}

// Name implements Stage.
func (c Commit) Name() string { return "commit" }

// Run implements Stage.
func (c Commit) Run(st *State) error {
	acc := st.PrevAccuracy
	if len(st.Completed) >= c.MinQuorum {
		var err error
		acc, err = c.Accuracy.Advance(st.Completed)
		if err != nil {
			return fmt.Errorf("advance accuracy: %w", err)
		}
	}
	st.Record.Accuracy = acc
	if err := c.Ledger.Commit(st.Record); err != nil {
		// Unreachable given Settle's pre-check, but surface it rather
		// than panic.
		return fmt.Errorf("commit: %w", err)
	}
	st.Status = StatusCommitted
	return nil
}
