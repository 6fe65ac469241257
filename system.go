package chiron

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/fl"
	"chiron/internal/mat"
	"chiron/internal/nn"
)

// SystemConfig assembles a complete edge-learning system: fleet, learning
// task, budget, and agent. Zero values select the paper's defaults.
type SystemConfig struct {
	// Nodes is the fleet size N (required).
	Nodes int
	// CustomNodes supplies an explicit fleet, bypassing random generation.
	CustomNodes []*Node
	// Dataset selects the learning task (default DatasetMNIST).
	Dataset Dataset
	// Budget is η, the total incentive budget (required).
	Budget float64
	// Seed drives all stochasticity (0 = seed 1).
	Seed int64
	// RealTraining switches the accuracy signal from the calibrated
	// surrogate curve to actual FedAvg training of a pure-Go MLP on the
	// synthetic dataset. Slower, but exercises the entire paper pipeline.
	RealTraining bool
	// Churn schedules node arrivals and departures across rounds (nil = the
	// paper's fixed fleet). Build one with ParseChurnScript or
	// NewChurnSampler.
	Churn ChurnSchedule
	// Workers bounds the goroutines a batch stage fans out to (0 =
	// GOMAXPROCS): above 1 each PPO update runs its critic and actor
	// epochs, and the two agents' updates, concurrently, and a large
	// fleet's round shards its nodes into that many bands. Results are
	// bit-identical at any worker count; the setting is process-wide, so
	// the last constructed system wins.
	Workers int
}

// System is the assembled reproduction: an environment and a hierarchical
// agent ready to train, evaluate, and compare against baselines.
type System struct {
	cfg   SystemConfig
	env   *edgeenv.Env
	agent *core.Chiron
}

// NewSystem validates cfg and assembles the environment and agent.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("chiron: SystemConfig.Workers %d must be >= 0 (0 = GOMAXPROCS)", cfg.Workers)
	}
	for i, n := range cfg.CustomNodes {
		if n == nil {
			return nil, fmt.Errorf("chiron: CustomNodes[%d] is nil", i)
		}
	}
	if cfg.Dataset == 0 {
		cfg.Dataset = DatasetMNIST
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	envCfg, err := cfg.envConfig()
	if err != nil {
		return nil, err
	}
	if len(cfg.CustomNodes) > 0 {
		envCfg.Fleet = device.FromNodes(cfg.CustomNodes)
	}
	env, err := edgeenv.New(envCfg)
	if err != nil {
		return nil, fmt.Errorf("chiron: environment: %w", err)
	}

	agent, err := core.New(env, experiment.TunedChironConfig(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("chiron: agent: %w", err)
	}
	// The worker count is process-wide, so it is set only once cfg has
	// been accepted: a rejected config leaves it alone.
	if cfg.Workers != 0 {
		mat.SetWorkers(cfg.Workers)
	}
	return &System{cfg: cfg, env: env, agent: agent}, nil
}

// envConfig is the paper environment of experiment.Setup.Config for cfg,
// with cfg's churn schedule and, when cfg asks for it, real FedAvg
// training of a pure-Go MLP as the accuracy signal.
func (cfg SystemConfig) envConfig() (edgeenv.Config, error) {
	nodes := cfg.Nodes
	if len(cfg.CustomNodes) > 0 {
		nodes = len(cfg.CustomNodes)
	}
	preset := cfg.Dataset
	// The 100-node MNIST surrogate is fit to the paper's Table I.
	if !cfg.RealTraining && preset == DatasetMNIST && nodes >= 50 {
		preset = accuracy.PresetMNISTLarge
	}
	envCfg, err := experiment.Setup{Preset: preset, Nodes: nodes, Budget: cfg.Budget, Seed: cfg.Seed}.Config()
	if err != nil {
		return edgeenv.Config{}, fmt.Errorf("chiron: %w", err)
	}
	envCfg.Churn = cfg.Churn
	if !cfg.RealTraining {
		return envCfg, nil
	}
	// 1200 samples per episode keep a 500-episode DRL sweep tractable on
	// CPU.
	spec, hidden, err := accuracy.Task(cfg.Dataset, 1200)
	if err != nil {
		return edgeenv.Config{}, err
	}
	factory := func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(rng, spec.Dim(), hidden, spec.Classes)
	}
	envCfg.Accuracy, err = accuracy.NewRealTrainer(accuracy.RealTrainerConfig{
		Spec:     spec,
		Factory:  factory,
		Train:    fl.DefaultConfig(),
		NumNodes: nodes,
		Seed:     cfg.Seed,
	})
	return envCfg, err
}

// Env returns the system's environment.
func (s *System) Env() *Env { return s.env }

// Agent returns the hierarchical agent.
func (s *System) Agent() *Agent { return s.agent }

// Train runs the Algorithm 1 training loop for the given number of
// episodes, invoking callback (if non-nil) after each episode.
func (s *System) Train(episodes int, callback func(EpisodeResult)) ([]EpisodeResult, error) {
	return s.agent.Train(episodes, callback)
}

// Evaluate plays episodes with deterministic (mean) actions and no
// learning, returning averaged metrics.
func (s *System) Evaluate(episodes int) (EpisodeResult, error) {
	return s.agent.Evaluate(episodes)
}

// NewBaselineDRL builds the DRL-based comparison mechanism on a fresh
// environment identical to the system's (same fleet, same task seed).
func (s *System) NewBaselineDRL() (*DRLBased, error) {
	m, err := s.newBaseline(experiment.KindDRLBased)
	if err != nil {
		return nil, err
	}
	return m.(*DRLBased), nil
}

// NewBaselineGreedy builds the Greedy comparison mechanism on a fresh
// environment identical to the system's.
func (s *System) NewBaselineGreedy() (*Greedy, error) {
	m, err := s.newBaseline(experiment.KindGreedy)
	if err != nil {
		return nil, err
	}
	return m.(*Greedy), nil
}

// newBaseline builds a comparison mechanism with the experiment harness's
// configuration on a clone of the system's environment.
func (s *System) newBaseline(kind experiment.MechanismKind) (Mechanism, error) {
	env, err := s.cloneEnv()
	if err != nil {
		return nil, err
	}
	return experiment.BuildMechanism(kind, env, s.cfg.Seed)
}

// cloneEnv rebuilds an environment on the system's fleet with a fresh
// accuracy model so baselines do not share mutable state with the agent.
// The fresh model comes from the same envConfig that built the system's;
// the fleet that call also draws is discarded on purpose, since the clone
// keeps the system's own immutable fleet (CustomNodes are caller-owned
// pointers a re-read could see changed).
func (s *System) cloneEnv() (*edgeenv.Env, error) {
	fresh, err := s.cfg.envConfig()
	if err != nil {
		return nil, err
	}
	envCfg := s.env.Config()
	envCfg.Accuracy = fresh.Accuracy
	env, err := edgeenv.New(envCfg)
	if err != nil {
		return nil, fmt.Errorf("chiron: clone environment: %w", err)
	}
	return env, nil
}
