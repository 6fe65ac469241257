// Package chiron is a from-scratch Go reproduction of "Incentive-Driven
// Long-term Optimization for Edge Learning by Hierarchical Reinforcement
// Mechanism" (ICDCS 2021).
//
// Chiron is an incentive mechanism run by a federated-learning parameter
// server: each round it prices every edge node's CPU-cycle contribution
// out of a fixed budget η; nodes best-respond with a utility-maximizing
// CPU frequency; a two-layer (hierarchical) PPO agent learns the pricing
// policy. The exterior agent paces the budget across rounds (long-term
// goal); the inner agent splits each round's total price across nodes to
// equalize their finish times (short-term goal, Lemma 1).
//
// The package exposes the full system: the device/economic model with the
// paper's constants, the FedAvg training substrate (with both a real
// pure-Go neural-network trainer and a calibrated surrogate accuracy
// model), the hierarchical agent, the paper's two comparison mechanisms,
// and the experiment harness that regenerates every table and figure of
// the evaluation section. Start with NewSystem:
//
//	sys, err := chiron.NewSystem(chiron.SystemConfig{
//		Nodes:   5,
//		Dataset: chiron.DatasetMNIST,
//		Budget:  300,
//		Seed:    7,
//	})
//	if err != nil { ... }
//	results, err := sys.Train(500, nil)
//	summary, err := sys.Evaluate(5)
package chiron

import (
	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/dataset"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/faults"
	"chiron/internal/fl"
	"chiron/internal/market"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Node is one edge node's hardware and economic profile (Sec. III).
	Node = device.Node
	// FleetSpec configures random fleet generation (Sec. VI-A constants).
	FleetSpec = device.FleetSpec
	// NodeResponse is a node's best response to a posted price (Eqn. 11).
	NodeResponse = device.Response

	// EpisodeResult summarizes one edge-learning episode.
	EpisodeResult = mechanism.EpisodeResult
	// Mechanism is the contract shared by Chiron and the baselines.
	Mechanism = mechanism.Mechanism

	// Env is the edge-learning MDP (fleet + accuracy model + budget).
	Env = edgeenv.Env
	// EnvConfig parameterizes the environment.
	EnvConfig = edgeenv.Config
	// StepResult reports one environment round.
	StepResult = edgeenv.StepResult
	// Round is the per-round market record {ζ_k, p_k, T_k, payment}.
	Round = market.Round
	// Ledger tracks the budget and round history of an episode.
	Ledger = market.Ledger

	// Agent is the hierarchical DRL incentive mechanism (the paper's
	// primary contribution).
	Agent = core.Chiron
	// AgentConfig parameterizes the hierarchical agent.
	AgentConfig = core.Config
	// PPOConfig holds the PPO hyperparameters of a single layer.
	PPOConfig = rl.PPOConfig

	// DRLBased is the single-agent myopic comparison mechanism.
	DRLBased = baselines.DRLBased
	// DRLBasedConfig parameterizes the DRL-based baseline.
	DRLBasedConfig = baselines.DRLBasedConfig
	// Greedy is the replay-buffer comparison mechanism.
	Greedy = baselines.Greedy
	// GreedyConfig parameterizes the Greedy baseline.
	GreedyConfig = baselines.GreedyConfig

	// ChurnSchedule decides fleet membership per round: which nodes are
	// present at a round's offer and which depart mid-round.
	ChurnSchedule = faults.ChurnSchedule
	// ChurnScript is an explicit scripted arrival/departure plan.
	ChurnScript = faults.ChurnScript
	// ChurnEvent is one scripted arrival or departure.
	ChurnEvent = faults.ChurnEvent
	// ChurnRates parameterizes the seed-deterministic Markov churn sampler.
	ChurnRates = faults.ChurnRates
	// ChurnSampler draws per-node membership chains from ChurnRates.
	ChurnSampler = faults.ChurnSampler
	// Backoff is the unified retry/backoff policy (upload retries, crash
	// restarts).
	Backoff = faults.Backoff

	// AccuracyModel produces the A(ω_k) trajectory of a learning task.
	AccuracyModel = accuracy.Model
	// SurrogateCurve is the calibrated analytic accuracy model.
	SurrogateCurve = accuracy.SurrogateCurve
	// RealTrainer measures accuracy by actually running FedAvg over pure-Go
	// neural networks.
	RealTrainer = accuracy.RealTrainer
	// RealTrainerConfig parameterizes a RealTrainer.
	RealTrainerConfig = accuracy.RealTrainerConfig

	// SynthSpec describes a synthetic dataset.
	SynthSpec = dataset.SynthSpec
	// TrainConfig holds the local-SGD hyperparameters of federated training.
	TrainConfig = fl.Config

	// Artifact names one reproduced table or figure (fig3 … tab1).
	Artifact = experiment.Artifact
	// ComparisonParams configures a budget-sweep experiment.
	ComparisonParams = experiment.ComparisonParams
	// Comparison is a budget sweep's results.
	Comparison = experiment.Comparison
	// ConvergenceParams configures a learning-curve experiment.
	ConvergenceParams = experiment.ConvergenceParams
	// Convergence is a learning-curve run's results.
	Convergence = experiment.Convergence
)

// ParseChurnScript parses the compact churn-plan notation: "+NODE@ROUND"
// schedules an arrival, "-NODE@ROUND" a departure, separated by commas,
// semicolons, or whitespace (e.g. "-3@5,+3@9" departs node 3 at round 5
// and returns it at round 9). A node whose first event is an arrival
// starts outside the fleet.
func ParseChurnScript(spec string) (*ChurnScript, error) {
	return faults.ParseChurnScript(spec)
}

// NewChurnSampler builds the seed-deterministic Markov churn schedule:
// each present node departs with rates.Depart per round, each absent node
// returns with rates.Arrive.
func NewChurnSampler(rates ChurnRates, seed int64) (*ChurnSampler, error) {
	return faults.NewChurnSampler(rates, seed)
}

// Dataset identifies one of the paper's three evaluation tasks.
type Dataset int

// The evaluation datasets. The offline reproduction substitutes calibrated
// synthetic equivalents; see DESIGN.md.
const (
	DatasetMNIST Dataset = iota + 1
	DatasetFashionMNIST
	DatasetCIFAR10
)

// String implements fmt.Stringer.
func (d Dataset) String() string {
	switch d {
	case DatasetMNIST:
		return "mnist"
	case DatasetFashionMNIST:
		return "fashion-mnist"
	case DatasetCIFAR10:
		return "cifar-10"
	default:
		return "dataset(unknown)"
	}
}

// Experiment artifacts, re-exported for CLI and benchmark callers.
const (
	Fig3  = experiment.Fig3
	Fig4  = experiment.Fig4
	Fig5  = experiment.Fig5
	Fig6  = experiment.Fig6
	Fig7a = experiment.Fig7a
	Fig7b = experiment.Fig7b
	Tab1  = experiment.Tab1
)

// Artifacts lists every reproduced paper artifact in paper order.
func Artifacts() []Artifact { return experiment.Artifacts() }

// ExtraArtifacts lists the ablation studies shipped beyond the paper's
// own evaluation.
func ExtraArtifacts() []Artifact { return experiment.ExtraArtifacts() }

// DescribeArtifact returns a one-line description of a paper artifact or
// ablation study.
func DescribeArtifact(a Artifact) string { return experiment.Describe(a) }

// RunArtifact executes a paper artifact or ablation study serially at the
// given scale (1.0 = the paper's full episode counts) and returns a
// rendered text report. 'chiron run -artifact' runs the same path with a
// worker bound and writes the CSV series too.
func RunArtifact(a Artifact, scale float64) (string, error) {
	report, _, err := experiment.RunJobs(a, scale, 1)
	return report, err
}

// DefaultFleetSpec returns the paper's Sec. VI-A device constants for n
// nodes.
func DefaultFleetSpec(n int) FleetSpec { return device.DefaultFleetSpec(n) }

// DefaultAgentConfig returns the paper's hyperparameters for both agent
// layers, including the reproduction's documented inner-agent tuning.
func DefaultAgentConfig(seed int64) AgentConfig {
	return experiment.TunedChironConfig(seed)
}

// DefaultTrainConfig mirrors the paper's local-training settings
// (σ=5 epochs, batch size 10).
func DefaultTrainConfig() TrainConfig { return fl.DefaultConfig() }
