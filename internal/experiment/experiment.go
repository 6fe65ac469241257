// Package experiment contains the harness that regenerates every table and
// figure of the paper's evaluation (Sec. VI): environment builders wired to
// the paper's constants, comparison sweeps across budgets for the three
// mechanisms, convergence (learning-curve) runs, and text/CSV emitters.
//
// Every trained cell is opened one way, by Setup.open (environment, then
// mechanism), and trained and evaluated by one job, cellJob: each
// comparison point and each λ or time-weight ablation row is a cellJob,
// a learning curve trains the mechanism open returns, and the frozen-policy
// ablations (frozenSweep) train once and evaluate the checkpoint under each
// row's disturbance of the same environment.
//
// One table registers every experiment under the paper artifact it
// reproduces (fig3 … fig7, tab1) or the ablation study it runs (abl-*),
// and RunJobs dispatches any of them at a Scale factor so tests and
// benchmarks can run reduced versions of the same code path.
package experiment

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
)

// Setup describes one experiment environment: a dataset preset, fleet size,
// and budget.
type Setup struct {
	// Preset selects the calibrated accuracy curve (dataset).
	Preset accuracy.Preset
	// Nodes is the fleet size N.
	Nodes int
	// Budget is η.
	Budget float64
	// Seed drives fleet generation and all agent stochasticity.
	Seed int64
	// Lambda is λ (0 means the paper default 2000; any other value is
	// forwarded, so edgeenv.Config.Validate refuses a negative or NaN one).
	Lambda float64
	// TimeWeight overrides the exterior reward's time weighting (0 keeps
	// the calibrated default; any other value is forwarded and validated).
	// The large-scale (N=100) experiments use a smaller weight so the
	// dimensionless utility balances the way Table I's budget-limited round
	// counts imply; see DESIGN.md.
	TimeWeight float64
}

// Config assembles the environment configuration of a setup with the
// paper's Sec. VI-A device constants — the one construction of the paper
// environment that BuildEnv, the frozen-policy ablations and
// chiron.NewSystem share.
func (s Setup) Config() (edgeenv.Config, error) {
	if s.Nodes <= 0 {
		return edgeenv.Config{}, fmt.Errorf("experiment: nodes %d, want > 0", s.Nodes)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(s.Nodes))
	if err != nil {
		return edgeenv.Config{}, fmt.Errorf("experiment: fleet: %w", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(s.Seed+1)), s.Preset, s.Nodes)
	if err != nil {
		return edgeenv.Config{}, fmt.Errorf("experiment: accuracy: %w", err)
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, s.Budget)
	if s.Lambda != 0 {
		cfg.Lambda = s.Lambda
	}
	if s.TimeWeight != 0 {
		cfg.TimeWeight = s.TimeWeight
	}
	return cfg, nil
}

// BuildEnv constructs the edge-learning environment for a setup, using the
// paper's Sec. VI-A device constants.
func BuildEnv(s Setup) (*edgeenv.Env, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	env, err := edgeenv.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: env: %w", err)
	}
	return env, nil
}

// open builds the setup's environment and a kind mechanism bound to it,
// seeded with the setup's seed.
func (s Setup) open(kind MechanismKind) (mechanism.Mechanism, error) {
	env, err := BuildEnv(s)
	if err != nil {
		return nil, err
	}
	return BuildMechanism(kind, env, s.Seed)
}

// TunedChironConfig returns the Chiron hyperparameters used throughout the
// evaluation: core.DefaultConfig (which already carries the reproduction's
// documented conditioning adjustments) with the experiment's seed.
func TunedChironConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// MechanismKind identifies a mechanism in comparison sweeps.
type MechanismKind int

// The mechanisms of Sec. VI plus the ablation references.
const (
	KindChiron MechanismKind = iota + 1
	KindDRLBased
	KindGreedy
	KindUniform
	KindEqualTimeOracle
)

// String implements fmt.Stringer.
func (k MechanismKind) String() string {
	switch k {
	case KindChiron:
		return "Chiron"
	case KindDRLBased:
		return "DRL-based"
	case KindGreedy:
		return "Greedy"
	case KindUniform:
		return "Uniform"
	case KindEqualTimeOracle:
		return "EqualTime-Oracle"
	default:
		return fmt.Sprintf("mechanism(%d)", int(k))
	}
}

// BuildMechanism constructs a mechanism of the given kind bound to env.
func BuildMechanism(kind MechanismKind, env *edgeenv.Env, seed int64) (mechanism.Mechanism, error) {
	switch kind {
	case KindChiron:
		return core.New(env, TunedChironConfig(seed))
	case KindDRLBased:
		cfg := baselines.DefaultDRLBasedConfig()
		cfg.Seed = seed
		cfg.PPO.CriticLR = 3e-4
		return baselines.NewDRLBased(env, cfg)
	case KindGreedy:
		cfg := baselines.DefaultGreedyConfig()
		cfg.Seed = seed
		return baselines.NewGreedy(env, cfg)
	case KindUniform:
		return baselines.NewUniform(env, 0.5)
	case KindEqualTimeOracle:
		return baselines.NewEqualTime(env, baselines.MinFeasibleTime(env))
	default:
		return nil, fmt.Errorf("experiment: unknown mechanism kind %v", kind)
	}
}
