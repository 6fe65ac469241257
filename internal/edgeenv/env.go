// Package edgeenv assembles the device fleet, accuracy model, and budget
// ledger into the edge-learning Markov decision process the hierarchical
// agent interacts with (Fig. 2 of the paper).
//
// One Step corresponds to one federated training round: the caller posts a
// per-node price vector, every node best-responds with a CPU frequency,
// participants train, FedAvg runs (through the accuracy model), payments
// are deducted, and the exterior/inner rewards are emitted. An episode
// terminates when a round's payment would exceed the remaining budget —
// that round is discarded per Sec. V-A — or when the MaxRounds safety cap
// is hit.
//
// Beyond the paper's clean assumptions, the environment carries a failure
// model (see DESIGN.md, "Failure model"): an injected fault schedule
// (internal/faults) can crash, slow, drop, or corrupt recruited nodes; a
// round deadline cuts stragglers; a completion quorum gates model
// progress; and failed nodes earn a configurable fraction of their
// contracted payment, keeping the ledger exact under churn.
//
// The fleet enters as a struct-of-arrays device.Fleet, whether drawn from
// a spec or packed once from explicit nodes. Every Step streams whole
// columns through the batch kernels; with CompactRounds set it does so
// with zero steady-state allocation, and per-node structs and per-round
// vectors are never materialized. See DESIGN.md §13.
package edgeenv

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
	"chiron/internal/mat"
	"chiron/internal/round"
)

// Config parameterizes the environment.
type Config struct {
	// Fleet is the edge fleet (required). The environment never mutates
	// its columns.
	Fleet *device.Fleet
	// CompactRounds switches committed round records to streamed
	// aggregates (market.Round with NumNodes/MaxTime/SumTime instead of
	// per-node Prices/Freqs/Times/Outcomes vectors), keeping the ledger
	// history O(1) per round. Required for million-node episodes; leave
	// false where callers inspect per-node outcomes.
	CompactRounds bool
	// Accuracy produces A(ω_k); it is Reset at every episode start.
	Accuracy accuracy.Model
	// Budget is η, the total payment budget per episode.
	Budget float64
	// Lambda is λ, the accuracy-preference coefficient (paper: 2000).
	Lambda float64
	// TimeWeight scales the time term of the exterior reward. 1 gives the
	// Eqn. (9)-consistent r^E = λΔA − T_k; setting it to Lambda recovers
	// the literal Eqn. (14). See DESIGN.md.
	TimeWeight float64
	// HistoryLen is L, the number of past rounds in the exterior state.
	HistoryLen int
	// MaxRounds caps episode length against degenerate zero-payment loops.
	MaxRounds int
	// CommJitter models per-round bandwidth variation (the paper's
	// B_{i,k}): each node's upload time is scaled each round by a uniform
	// factor in [1−CommJitter, 1+CommJitter]. Zero disables jitter.
	CommJitter float64
	// Availability is the per-round probability that a node is reachable
	// at all; an unavailable node declines regardless of price. 0 means
	// always available (the paper's assumption); values in (0,1) inject
	// the churn real edge fleets exhibit.
	Availability float64
	// Rng drives CommJitter and Availability draws. Required when either
	// is enabled, unless Draws replays them instead.
	Rng *rand.Rand
	// Bandwidth is a time-varying uplink regime: each round, every node's
	// nominal upload time is scaled by Bandwidth.Factor(round) before the
	// jitter draw. Nil keeps the constant nominal bandwidth.
	Bandwidth round.BandwidthSchedule
	// Draws, when non-nil, replays recorded environment draws: membership,
	// availability, and jitter come from the source verbatim and the RNG,
	// churn schedule, and bandwidth regime are never consulted. The
	// counterfactual-replay hook (internal/scenario layers a trace-backed
	// source over this).
	Draws round.DrawSource
	// DrawRecorder, when non-nil, observes every round's resolved draw
	// columns — the exact inputs a Draws source must later reproduce.
	DrawRecorder round.DrawRecorder
	// Faults schedules per-node, per-round failures (crash, straggle,
	// upload drop, update corruption). Nil disables fault injection; a
	// faults.Sampler keeps sampled runs seed-deterministic and a
	// faults.Script reproduces an exact failure sequence.
	Faults faults.Schedule
	// RoundDeadline is the server's straggler cutoff in seconds: any node
	// still running when it expires is cut, so the round time becomes
	// min(RoundDeadline, max_i T_{i,k}). Zero disables the deadline (the
	// paper's assumption — the server waits for the slowest node).
	RoundDeadline float64
	// MaxRetries bounds how many times the server re-requests a dropped
	// upload before abandoning the node for the round. Zero means no
	// retries: the first lost upload drops the node.
	MaxRetries int
	// RetryBackoff is the extra wall-clock pause (seconds) the server
	// waits before each re-upload attempt, on top of the node's upload
	// time itself.
	RetryBackoff float64
	// Churn schedules node arrivals and departures across the episode
	// (faults.ChurnScript for exact sequences, faults.ChurnSampler for
	// seed-deterministic sampling). Nil keeps the paper's fixed fleet. An
	// absent node is outside the recruitment pool entirely; a node
	// departing mid-round forfeits payment per the failure-payment rule
	// and re-enters the Eqn. (11) best-response pool at the Offer stage
	// after its next arrival.
	Churn faults.ChurnSchedule
	// FailurePayment ∈ [0,1] is the fraction of a failed node's
	// contracted payment the server still pays (crash, deadline cut,
	// drop, or corruption). 0 — the default — pays failed nodes nothing,
	// keeping the ledger's budget accounting exact under churn.
	FailurePayment float64
	// MinQuorum is the minimum number of completed updates required for
	// the round to advance the global model. Rounds below quorum still
	// cost time and failure payments but leave accuracy unchanged. Zero
	// selects the default quorum of 1.
	MinQuorum int
}

// DefaultMaxRounds is the episode round cap the default configurations
// install — the value scenario specs inherit when they do not override
// MaxRounds.
const DefaultMaxRounds = 200

// DefaultConfig returns the paper's settings (λ=2000, L=4) for the given
// fleet and accuracy model. TimeWeight is calibrated to 0.3 so that the
// second-scale round times of the Sec. VI-A device constants balance the
// unit-scale accuracy term the way the paper's dimensionless utility does;
// see DESIGN.md for the analysis.
func DefaultConfig(fleet *device.Fleet, acc accuracy.Model, budget float64) Config {
	return Config{
		Fleet:      fleet,
		Accuracy:   acc,
		Budget:     budget,
		Lambda:     2000,
		TimeWeight: 0.3,
		HistoryLen: 4,
		MaxRounds:  DefaultMaxRounds,
	}
}

// DefaultFleetConfig is DefaultConfig plus CompactRounds, the
// configuration million-node benchmarks run under.
func DefaultFleetConfig(fleet *device.Fleet, acc accuracy.Model, budget float64) Config {
	cfg := DefaultConfig(fleet, acc, budget)
	cfg.CompactRounds = true
	return cfg
}

// Validate reports whether the configuration is usable: a non-empty fleet
// of valid nodes, an accuracy model, a Rng when draws need one, and the
// settings ValidateSettings checks. New resolves the zero-value defaults
// after it and assembles the round pipeline, whose stages trust their
// fields.
func (c Config) Validate() error {
	switch {
	case c.Fleet == nil || c.Fleet.Len() == 0:
		return fmt.Errorf("edgeenv: no nodes")
	case c.Accuracy == nil:
		return fmt.Errorf("edgeenv: no accuracy model")
	}
	if err := c.ValidateSettings(c.Fleet.Len()); err != nil {
		return err
	}
	if (c.CommJitter > 0 || (c.Availability > 0 && c.Availability < 1)) && c.Rng == nil && c.Draws == nil {
		return fmt.Errorf("edgeenv: CommJitter/Availability require a Rng")
	}
	return c.Fleet.Validate()
}

// ValidateSettings is the one check of the environment's setting values
// for a fleet of numNodes nodes. It reads none of the built objects (Fleet,
// Accuracy, Rng, schedules), so a caller can check the settings before it
// builds them. Every float setting must be finite (NaN and ±Inf are
// rejected), in addition to its range.
func (c Config) ValidateSettings(numNodes int) error {
	switch {
	case !finite(c.Budget) || c.Budget <= 0:
		return fmt.Errorf("edgeenv: budget %v, want finite > 0", c.Budget)
	case !finite(c.Lambda) || c.Lambda <= 0:
		return fmt.Errorf("edgeenv: lambda %v, want finite > 0", c.Lambda)
	case !finite(c.TimeWeight) || c.TimeWeight < 0:
		return fmt.Errorf("edgeenv: time weight %v, want finite >= 0", c.TimeWeight)
	case c.HistoryLen <= 0:
		return fmt.Errorf("edgeenv: history length %d, want > 0", c.HistoryLen)
	case c.MaxRounds <= 0:
		return fmt.Errorf("edgeenv: max rounds %d, want > 0", c.MaxRounds)
	case !(c.CommJitter >= 0 && c.CommJitter < 1):
		return fmt.Errorf("edgeenv: comm jitter %v outside [0,1)", c.CommJitter)
	case !(c.Availability >= 0 && c.Availability <= 1):
		return fmt.Errorf("edgeenv: availability %v outside [0,1]", c.Availability)
	case !finite(c.RoundDeadline) || c.RoundDeadline < 0:
		return fmt.Errorf("edgeenv: round deadline %v, want finite >= 0", c.RoundDeadline)
	case c.MaxRetries < 0:
		return fmt.Errorf("edgeenv: max retries %d, want >= 0", c.MaxRetries)
	case !finite(c.RetryBackoff) || c.RetryBackoff < 0:
		return fmt.Errorf("edgeenv: retry backoff %v, want finite >= 0", c.RetryBackoff)
	case !(c.FailurePayment >= 0 && c.FailurePayment <= 1):
		return fmt.Errorf("edgeenv: failure payment %v outside [0,1]", c.FailurePayment)
	case c.MinQuorum < 0:
		return fmt.Errorf("edgeenv: min quorum %d, want >= 0", c.MinQuorum)
	case c.MinQuorum > numNodes:
		return fmt.Errorf("edgeenv: min quorum %d exceeds fleet size %d", c.MinQuorum, numNodes)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// StepResult reports the outcome of one environment step.
type StepResult struct {
	// Round is the committed round record (zero-valued when Done is set by
	// budget exhaustion, since the overrunning round is discarded). Its
	// Outcomes field carries the per-node completed / crashed /
	// deadline-cut / dropped / corrupted status; under CompactRounds the
	// record carries streamed aggregates instead of per-node vectors.
	Round market.Round
	// ExteriorReward is r^E_k = λΔA − TimeWeight·T_k (Eqn. 14).
	ExteriorReward float64
	// InnerReward is r^I_k = −Σ(T_k − T_{i,k}) (Eqn. 15).
	InnerReward float64
	// Done reports episode termination (budget exhausted or round cap).
	Done bool
	// Truncated distinguishes the MaxRounds cap from budget exhaustion.
	Truncated bool
}

// Env is the edge-learning environment. It is not safe for concurrent use.
type Env struct {
	cfg       Config
	fleet     *device.Fleet
	nodes     []*device.Node // lazily materialized from fleet by Nodes
	ledger    *market.Ledger
	pipe      *round.Pipeline
	st        *round.State // reused across Steps; see round.State.Reset
	freqNorm  float64      // max ζ_max across fleet, for state normalization
	priceNorm float64      // per-node price driving the fastest node flat out
	timeNorm  float64      // slowest conceivable round time
	round     int
	lastAcc   float64
	done      bool
}

// New validates cfg and returns a fresh environment positioned before the
// first episode; call Reset before Step.
func New(cfg Config) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ledger, err := market.NewLedger(cfg.Budget)
	if err != nil {
		return nil, err
	}
	fleet := cfg.Fleet
	e := &Env{cfg: cfg, fleet: fleet, ledger: ledger, done: true}
	// Normalization constants stream over the columns; the expressions
	// match the old per-node loop exactly (PriceForFreq's association is
	// the fleet's priceCoef·ζ).
	for i := 0; i < fleet.Len(); i++ {
		if fleet.FreqMax[i] > e.freqNorm {
			e.freqNorm = fleet.FreqMax[i]
		}
		if p := fleet.PriceForFreq(i, fleet.FreqMax[i]); p > e.priceNorm {
			e.priceNorm = p
		}
		if t := fleet.Workload(i)/fleet.FreqMin[i] + fleet.CommTime[i]*(1+cfg.CommJitter); t > e.timeNorm {
			e.timeNorm = t
		}
	}
	// Resolve the config's zero-value defaults before handing the round
	// economics to the stage pipeline, which trusts its fields.
	minQuorum := cfg.MinQuorum
	if minQuorum <= 0 {
		minQuorum = 1
	}
	e.pipe = &round.Pipeline{
		Offer: round.Offer{NumNodes: fleet.Len(), Compact: cfg.CompactRounds},
		Respond: round.Respond{
			Fleet:        fleet,
			Churn:        cfg.Churn,
			Availability: cfg.Availability,
			CommJitter:   cfg.CommJitter,
			Rng:          cfg.Rng,
			Bandwidth:    cfg.Bandwidth,
			Draws:        cfg.Draws,
			Recorder:     cfg.DrawRecorder,
		},
		Execute: round.Execute{
			Faults:       cfg.Faults,
			Deadline:     cfg.RoundDeadline,
			MaxRetries:   cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff,
		},
		Settle: round.Settle{
			FailurePayment: cfg.FailurePayment,
			// An offer that attracts no participants costs the slowest
			// conceivable round time before the server reposts, which
			// keeps "price everyone out" from being a free skip.
			EmptyTimeout: e.timeNorm,
			Ledger:       ledger,
		},
		Commit: round.Commit{
			Accuracy:  cfg.Accuracy,
			Ledger:    ledger,
			MinQuorum: minQuorum,
		},
	}
	return e, nil
}

// Pipeline exposes the staged round chain the environment drives — useful
// for stage-level inspection and tests. Callers must not run it
// concurrently with Step.
func (e *Env) Pipeline() *round.Pipeline { return e.pipe }

// NumNodes returns the fleet size N.
func (e *Env) NumNodes() int { return e.fleet.Len() }

// Fleet returns the struct-of-arrays fleet (callers must not mutate the
// columns).
func (e *Env) Fleet() *device.Fleet { return e.fleet }

// Nodes returns the per-node fleet view (callers must not mutate the
// nodes). The structs are materialized from the fleet on first call and
// cached — an O(N) cost fleet-scale callers avoid by staying on Fleet's
// columns.
func (e *Env) Nodes() []*device.Node {
	if e.nodes == nil {
		e.nodes = e.fleet.Nodes()
	}
	return e.nodes
}

// Ledger exposes the episode ledger for metric extraction.
func (e *Env) Ledger() *market.Ledger { return e.ledger }

// Config returns the environment configuration.
func (e *Env) Config() Config { return e.cfg }

// Round returns the index of the next round to be played (1-based after
// Reset).
func (e *Env) Round() int { return e.round }

// Done reports whether the current episode has terminated.
func (e *Env) Done() bool { return e.done }

// MaxTotalPrice returns Σ_i p_i(ζ_i^max): the total per-round price that
// drives every node at its maximum frequency. The exterior action space is
// (0, MaxTotalPrice].
func (e *Env) MaxTotalPrice() float64 { return e.fleet.MaxTotalPrice() }

// HistoryDim is the length of the window History renders: 3·N·L values.
func (e *Env) HistoryDim() int { return 3 * e.fleet.Len() * e.cfg.HistoryLen }

// History renders the windowed round history of the paper's exterior state
// s^E_k into dst (length HistoryDim): the most recent L rounds of {ζ, p, T}
// per node, oldest slot first, zero-padded before round L. Values are
// divided by the fleet's saturation constants (max ζ_max, the price driving
// the fastest node flat out, the slowest conceivable round time) to keep
// the policy networks well conditioned. It draws no randomness, so
// rendering the same state twice is bit-identical.
//
// The node axis is clamped per round record: a record narrower than the
// fleet (a round played while churn had shrunk the roster, or a legacy
// trace) contributes zeros for the missing tail instead of panicking.
// Compact (fleet-scale aggregate) records carry no per-node vectors and
// render as all-zero slots.
func (e *Env) History(dst []float64) {
	mat.FillVec(dst, 0)
	rounds := e.ledger.Rounds()
	n, window := e.fleet.Len(), e.cfg.HistoryLen
	for slot := 0; slot < window; slot++ {
		idx := len(rounds) - window + slot
		if idx < 0 {
			continue
		}
		r := &rounds[idx]
		base := slot * 3 * n
		m := min(n, len(r.Freqs), len(r.Prices), len(r.Times))
		if m == 0 {
			continue
		}
		mat.DivScalarVecTo(dst[base:base+m], r.Freqs[:m], e.freqNorm)
		mat.DivScalarVecTo(dst[base+n:base+n+m], r.Prices[:m], e.priceNorm)
		mat.DivScalarVecTo(dst[base+2*n:base+2*n+m], r.Times[:m], e.timeNorm)
	}
}

// Reset begins a new episode: the ledger refills and the learning task
// restarts. Mechanisms read their observations (History plus their own
// features) from the freshly reset ledger on demand.
func (e *Env) Reset() error {
	e.ledger.Reset()
	acc, err := e.cfg.Accuracy.Reset()
	if err != nil {
		return fmt.Errorf("edgeenv: reset accuracy: %w", err)
	}
	e.lastAcc = acc
	e.round = 1
	e.done = false
	return nil
}

// Step plays one round with the given per-node price vector by driving the
// staged pipeline (internal/round: Offer → Respond → Execute → Settle →
// Commit) and wrapping its terminal status in MDP semantics — rewards,
// episode termination, and the MaxRounds truncation cap. It returns the
// rewards and whether the episode terminated. Stepping a finished episode
// is an error; call Reset first.
//
// The round State is owned by the environment and reused across Steps, so
// a steady-state Step performs no per-node allocation (under
// CompactRounds; vector-record mode still allocates the committed record's
// per-node vectors, which the ledger history retains by design).
//
// With a fault schedule configured, each recruited node passes through the
// Execute stage's failure pipeline: a Crash silences it (the server waits
// out the deadline, or the node's nominal finish time when no deadline is
// set), a Straggle multiplies its round time, a Drop costs retry churn and
// abandons the node once MaxRetries is exhausted, and a Corrupt upload is
// rejected at sanitization. Any node still running at RoundDeadline is cut,
// so the round time is min(deadline, max_i T_{i,k}). Failed nodes earn
// FailurePayment·payment (0 by default); the Settle stage's budget
// pre-check uses the full contracted payment so the ledger can never
// overdraw even if every node completes.
func (e *Env) Step(prices []float64) (StepResult, error) {
	if e.done {
		return StepResult{}, fmt.Errorf("edgeenv: step on finished episode")
	}
	n := e.fleet.Len()
	if e.st == nil {
		e.st = round.NewState(e.round, prices, e.lastAcc, n)
	} else {
		e.st.Reset(e.round, prices, e.lastAcc, n)
	}
	st := e.st
	if err := e.pipe.Run(st); err != nil {
		return StepResult{}, fmt.Errorf("edgeenv: %w", err)
	}
	switch st.Status {
	case round.StatusEmpty:
		// The failed offer is not a training round: Settle charged it as
		// waste, both rewards carry the timeout penalty, and the episode
		// continues (only MaxRounds bounds it).
		timeout := e.pipe.Settle.EmptyTimeout
		res := StepResult{
			ExteriorReward: -e.cfg.TimeWeight * timeout,
			InnerReward:    -float64(n) * timeout,
		}
		e.advanceRound(&res)
		return res, nil
	case round.StatusBudgetExhausted:
		// The overrunning round is discarded wholesale and the episode
		// ends (Sec. V-A).
		e.done = true
		return StepResult{Done: true}, nil
	}

	res := StepResult{
		Round:          st.Record,
		ExteriorReward: e.cfg.Lambda*(st.Record.Accuracy-e.lastAcc) - e.cfg.TimeWeight*st.Record.RoundTime(),
		InnerReward:    -st.Record.IdleTime(),
	}
	e.lastAcc = st.Record.Accuracy
	e.advanceRound(&res)
	return res, nil
}

// advanceRound moves to the next round index and applies the MaxRounds
// truncation cap to the step result.
func (e *Env) advanceRound(res *StepResult) {
	e.round++
	if e.round > e.cfg.MaxRounds {
		res.Done = true
		res.Truncated = true
		e.done = true
	}
}

// RandomPrices produces a feasible random per-node price vector whose total
// is a uniform fraction of MaxTotalPrice — used by the Greedy baseline's
// exploration and in tests.
func (e *Env) RandomPrices(rng *rand.Rand) []float64 {
	n := e.fleet.Len()
	total := rng.Float64() * e.MaxTotalPrice()
	props := make([]float64, n)
	for i := range props {
		props[i] = rng.Float64() + 1e-9
	}
	mat.Normalize(props)
	for i := range props {
		props[i] *= total
	}
	return props
}
