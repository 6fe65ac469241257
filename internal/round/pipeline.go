package round

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
)

// Config assembles a Pipeline. All knobs mirror the environment's failure
// and churn model; the zero-value extensions reproduce the paper's clean
// assumptions. Values are expected to be pre-validated and pre-resolved by
// the caller (edgeenv resolves the default quorum and empty-round timeout
// before building the pipeline).
type Config struct {
	// Fleet is the struct-of-arrays fleet the batch stages run over
	// (required, never mutated by the pipeline).
	Fleet *device.Fleet
	// Compact switches the pipeline to aggregate-only round records: no
	// per-node vectors are allocated per round, and committed
	// market.Rounds carry the streamed T_k/ΣT reductions instead. The
	// fleet-scale mode; see DESIGN.md §13.
	Compact bool
	// Churn is the fleet-membership schedule Respond consults (nil = the
	// paper's fixed fleet).
	Churn faults.ChurnSchedule
	// Availability and CommJitter parameterize the churn draws of Respond.
	Availability float64
	CommJitter   float64
	// Rng drives the churn draws (required when either is enabled, unless
	// Draws replays them).
	Rng *rand.Rand
	// Bandwidth is the per-round uplink regime (nil = nominal bandwidth).
	Bandwidth BandwidthSchedule
	// Draws replays recorded environment draws instead of consulting the
	// churn schedule and RNG (see Respond.Draws).
	Draws DrawSource
	// Recorder observes every round's resolved draw columns (see
	// Respond.Recorder).
	Recorder DrawRecorder
	// Faults, Deadline, and Retry parameterize Execute.
	Faults   faults.Schedule
	Deadline float64
	// Retry is the dropped-upload retry/backoff policy.
	Retry faults.Backoff
	// FailurePayment and EmptyTimeout parameterize Settle.
	FailurePayment float64
	EmptyTimeout   float64
	// MinQuorum is Commit's completion quorum (must be ≥ 1).
	MinQuorum int
	// Accuracy and Ledger are the learning task and episode budget the
	// Settle/Commit stages act on.
	Accuracy accuracy.Model
	Ledger   *market.Ledger
}

// Pipeline is the assembled stage chain for one environment. It is not
// safe for concurrent use (stages share the State and the churn RNG);
// independent environments each own an independent pipeline, which is what
// lets experiment sweeps run grid cells in parallel. (The node axis inside
// Respond/Execute shards into bands via mat.ParallelRange, but that
// parallelism is internal to a single Run.)
type Pipeline struct {
	Offer   Offer
	Respond Respond
	Execute Execute
	Settle  Settle
	Commit  Commit
}

// New validates cfg's pipeline-critical fields and assembles the chain.
func New(cfg Config) (*Pipeline, error) {
	switch {
	case cfg.Fleet == nil || cfg.Fleet.Len() == 0:
		return nil, fmt.Errorf("round: no nodes")
	case cfg.Accuracy == nil:
		return nil, fmt.Errorf("round: no accuracy model")
	case cfg.Ledger == nil:
		return nil, fmt.Errorf("round: no ledger")
	case cfg.MinQuorum < 1:
		return nil, fmt.Errorf("round: min quorum %d, want >= 1", cfg.MinQuorum)
	case cfg.EmptyTimeout <= 0:
		return nil, fmt.Errorf("round: empty-round timeout %v, want > 0", cfg.EmptyTimeout)
	case (cfg.CommJitter > 0 || (cfg.Availability > 0 && cfg.Availability < 1)) && cfg.Rng == nil && cfg.Draws == nil:
		return nil, fmt.Errorf("round: churn draws require a Rng")
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("round: %w", err)
	}
	return &Pipeline{
		Offer: Offer{NumNodes: cfg.Fleet.Len(), Compact: cfg.Compact},
		Respond: Respond{
			Fleet:        cfg.Fleet,
			Churn:        cfg.Churn,
			Availability: cfg.Availability,
			CommJitter:   cfg.CommJitter,
			Rng:          cfg.Rng,
			Bandwidth:    cfg.Bandwidth,
			Draws:        cfg.Draws,
			Recorder:     cfg.Recorder,
		},
		Execute: Execute{
			Faults:   cfg.Faults,
			Deadline: cfg.Deadline,
			Retry:    cfg.Retry,
		},
		Settle: Settle{
			FailurePayment: cfg.FailurePayment,
			EmptyTimeout:   cfg.EmptyTimeout,
			Ledger:         cfg.Ledger,
		},
		Commit: Commit{
			Accuracy:  cfg.Accuracy,
			Ledger:    cfg.Ledger,
			MinQuorum: cfg.MinQuorum,
		},
	}, nil
}

// Stages returns the chain in execution order.
func (p *Pipeline) Stages() []Stage {
	return []Stage{p.Offer, p.Respond, p.Execute, p.Settle, p.Commit}
}

// Run drives st through the stage chain, stopping at the first terminal
// status (an empty offer or a budget-infeasible round skips the remaining
// stages). Errors are wrapped with the failing stage's name.
func (p *Pipeline) Run(st *State) error {
	for _, s := range p.Stages() {
		if err := s.Run(st); err != nil {
			return fmt.Errorf("round: %s: %w", s.Name(), err)
		}
		if st.Status != StatusPending {
			return nil
		}
	}
	return nil
}
