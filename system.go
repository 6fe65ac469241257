package chiron

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/dataset"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/fl"
	"chiron/internal/mat"
	"chiron/internal/nn"
)

// SystemConfig assembles a complete edge-learning system: fleet, learning
// task, budget, and agent. Zero values select the paper's defaults.
type SystemConfig struct {
	// Nodes is the fleet size N (required).
	Nodes int
	// Fleet overrides the generated fleet spec (nil = paper defaults).
	Fleet *FleetSpec
	// CustomNodes supplies an explicit fleet, bypassing random generation.
	CustomNodes []*Node
	// Dataset selects the learning task (default DatasetMNIST).
	Dataset Dataset
	// Budget is η, the total incentive budget (required).
	Budget float64
	// Lambda is λ, the accuracy preference (0 = paper default 2000).
	Lambda float64
	// Seed drives all stochasticity (0 = seed 1).
	Seed int64
	// RealTraining switches the accuracy signal from the calibrated
	// surrogate curve to actual FedAvg training of a pure-Go MLP on the
	// synthetic dataset. Slower, but exercises the entire paper pipeline.
	RealTraining bool
	// Agent overrides the hierarchical agent configuration (nil = tuned
	// defaults).
	Agent *AgentConfig
	// Accuracy overrides the accuracy model entirely (advanced use; takes
	// precedence over Dataset and RealTraining).
	Accuracy AccuracyModel
	// Churn schedules node arrivals and departures across rounds (nil = the
	// paper's fixed fleet). Build one with ParseChurnScript or
	// NewChurnSampler.
	Churn ChurnSchedule
	// Workers bounds the compute worker pool used by the matrix kernels
	// (0 = GOMAXPROCS); above 1 it also lets each PPO update run its
	// critic and actor epochs, and the two agents' updates, concurrently.
	// Results are bit-identical at any worker count; the setting is
	// process-wide, so the last constructed system wins.
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
	if cfg.Nodes <= 0 && len(cfg.CustomNodes) == 0 {
		return nil, fmt.Errorf("chiron: SystemConfig.Nodes must be positive (or CustomNodes non-empty)")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("chiron: SystemConfig.Budget must be positive")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("chiron: SystemConfig.Workers %d must be >= 0 (0 = GOMAXPROCS)", cfg.Workers)
	}
	if cfg.Dataset == 0 {
		cfg.Dataset = DatasetMNIST
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers != 0 {
		mat.SetWorkers(cfg.Workers)
	}

	var fleet *device.Fleet
	if len(cfg.CustomNodes) > 0 {
		for i, n := range cfg.CustomNodes {
			if n == nil {
				return nil, fmt.Errorf("chiron: CustomNodes[%d] is nil", i)
			}
		}
		fleet = device.FromNodes(cfg.CustomNodes)
	} else {
		spec := device.DefaultFleetSpec(cfg.Nodes)
		if cfg.Fleet != nil {
			spec = *cfg.Fleet
		}
		var err error
		fleet, err = device.NewFleetBatch(rand.New(rand.NewSource(cfg.Seed)), spec)
		if err != nil {
			return nil, fmt.Errorf("chiron: fleet: %w", err)
		}
	}

	acc := cfg.Accuracy
	if acc == nil {
		var err error
		acc, err = buildAccuracyModel(cfg, fleet.Len())
		if err != nil {
			return nil, err
		}
	}

	envCfg := edgeenv.DefaultConfig(fleet, acc, cfg.Budget)
	if cfg.Lambda > 0 {
		envCfg.Lambda = cfg.Lambda
	}
	envCfg.Churn = cfg.Churn
	env, err := edgeenv.New(envCfg)
	if err != nil {
		return nil, fmt.Errorf("chiron: environment: %w", err)
	}

	agentCfg := DefaultAgentConfig(cfg.Seed)
	if cfg.Agent != nil {
		agentCfg = *cfg.Agent
	}
	agent, err := core.New(env, agentCfg)
	if err != nil {
		return nil, fmt.Errorf("chiron: agent: %w", err)
	}
	return &System{cfg: cfg, env: env, agent: agent}, nil
}

// buildAccuracyModel selects between the surrogate curve and real FedAvg
// training for the configured dataset.
func buildAccuracyModel(cfg SystemConfig, nodes int) (accuracy.Model, error) {
	if cfg.RealTraining {
		spec, hidden := realTrainingTask(cfg.Dataset)
		factory := func(rng *rand.Rand) (*nn.Network, error) {
			return nn.NewClassifierMLP(rng, spec.Dim(), hidden, spec.Classes)
		}
		return accuracy.NewRealTrainer(accuracy.RealTrainerConfig{
			Spec:         spec,
			Factory:      factory,
			Train:        fl.DefaultConfig(),
			NumNodes:     nodes,
			TestFraction: 0.2,
			Seed:         cfg.Seed,
		})
	}
	preset, err := presetFor(cfg.Dataset, nodes)
	if err != nil {
		return nil, err
	}
	return accuracy.NewPresetCurve(rand.New(rand.NewSource(cfg.Seed+1)), preset, nodes)
}

// realTrainingTask returns the synthetic dataset spec and MLP width used
// when RealTraining is enabled. Sample counts are sized so a 500-episode
// DRL sweep stays tractable on CPU, and the noise levels are raised
// relative to the surrogate presets so the measured accuracy climbs
// gradually over tens of rounds instead of saturating immediately; see
// DESIGN.md.
func realTrainingTask(d Dataset) (dataset.SynthSpec, int) {
	const samplesPerEpisode = 1200
	switch d {
	case DatasetFashionMNIST:
		spec := dataset.SynthFashion(samplesPerEpisode)
		spec.Noise = 1.2
		spec.Overlap = 0.35
		return spec, 32
	case DatasetCIFAR10:
		spec := dataset.SynthCIFAR(samplesPerEpisode)
		spec.Noise = 1.5
		spec.Overlap = 0.55
		return spec, 48
	default:
		spec := dataset.SynthMNIST(samplesPerEpisode)
		spec.Noise = 0.9
		spec.Overlap = 0.2
		spec.Jitter = 2
		return spec, 32
	}
}

// presetFor maps a dataset and fleet size to the calibrated surrogate
// preset (the 100-node MNIST preset is fit to the paper's Table I).
func presetFor(d Dataset, nodes int) (accuracy.Preset, error) {
	switch d {
	case DatasetMNIST:
		if nodes >= 50 {
			return accuracy.PresetMNISTLarge, nil
		}
		return accuracy.PresetMNIST, nil
	case DatasetFashionMNIST:
		return accuracy.PresetFashion, nil
	case DatasetCIFAR10:
		return accuracy.PresetCIFAR, nil
	default:
		return 0, fmt.Errorf("chiron: unknown dataset %v", d)
	}
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
	env, err := s.cloneEnv()
	if err != nil {
		return nil, err
	}
	cfg := baselines.DefaultDRLBasedConfig()
	cfg.Seed = s.cfg.Seed
	cfg.PPO.CriticLR = 3e-4
	return baselines.NewDRLBased(env, cfg)
}

// NewBaselineGreedy builds the Greedy comparison mechanism on a fresh
// environment identical to the system's.
func (s *System) NewBaselineGreedy() (*Greedy, error) {
	env, err := s.cloneEnv()
	if err != nil {
		return nil, err
	}
	cfg := baselines.DefaultGreedyConfig()
	cfg.Seed = s.cfg.Seed
	return baselines.NewGreedy(env, cfg)
}

// cloneEnv rebuilds an environment with the same fleet and a fresh
// accuracy model so baselines do not share mutable state with the agent.
func (s *System) cloneEnv() (*edgeenv.Env, error) {
	acc := s.cfg.Accuracy
	if acc == nil {
		var err error
		acc, err = buildAccuracyModel(s.cfg, s.env.NumNodes())
		if err != nil {
			return nil, err
		}
	}
	envCfg := s.env.Config()
	envCfg.Accuracy = acc
	env, err := edgeenv.New(envCfg)
	if err != nil {
		return nil, fmt.Errorf("chiron: clone environment: %w", err)
	}
	return env, nil
}
