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
// The package is a small facade. NewSystem assembles the paper's setting:
// a fleet drawn with the Sec. VI-A device constants (or explicit nodes),
// the accuracy signal of the chosen dataset (a calibrated surrogate curve,
// or real pure-Go FedAvg training), the environment at λ=2000 and the
// hierarchical agent with its tuned hyperparameters. The System then
// trains and evaluates the agent and builds the paper's two comparison
// mechanisms on an identical environment. Artifacts lists the reproduced
// tables and figures; 'chiron run -artifact' regenerates them. Start with
// NewSystem:
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
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/faults"
	"chiron/internal/mechanism"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Node is one edge node's hardware and economic profile (Sec. III).
	Node = device.Node

	// EpisodeResult summarizes one edge-learning episode.
	EpisodeResult = mechanism.EpisodeResult
	// Mechanism is the contract shared by Chiron and the baselines.
	Mechanism = mechanism.Mechanism

	// Env is the edge-learning MDP (fleet + accuracy model + budget).
	Env = edgeenv.Env

	// Agent is the hierarchical DRL incentive mechanism (the paper's
	// primary contribution).
	Agent = core.Chiron

	// DRLBased is the single-agent myopic comparison mechanism.
	DRLBased = baselines.DRLBased
	// Greedy is the replay-buffer comparison mechanism.
	Greedy = baselines.Greedy

	// ChurnSchedule decides fleet membership per round: which nodes are
	// present at a round's offer and which depart mid-round.
	ChurnSchedule = faults.ChurnSchedule
	// ChurnScript is an explicit scripted arrival/departure plan.
	ChurnScript = faults.ChurnScript
	// ChurnRates parameterizes the seed-deterministic Markov churn sampler.
	ChurnRates = faults.ChurnRates
	// ChurnSampler draws per-node membership chains from ChurnRates.
	ChurnSampler = faults.ChurnSampler

	// Artifact names one reproduced table or figure (fig3 … tab1).
	Artifact = experiment.Artifact
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

// Dataset identifies one of the paper's three evaluation tasks by its
// calibrated accuracy preset.
type Dataset = accuracy.Preset

// The evaluation datasets. The offline reproduction substitutes calibrated
// synthetic equivalents; see DESIGN.md.
const (
	DatasetMNIST        = accuracy.PresetMNIST
	DatasetFashionMNIST = accuracy.PresetFashion
	DatasetCIFAR10      = accuracy.PresetCIFAR
)

// Artifacts lists every reproduced paper artifact in paper order.
func Artifacts() []Artifact { return experiment.Artifacts() }

// ExtraArtifacts lists the ablation studies shipped beyond the paper's
// own evaluation.
func ExtraArtifacts() []Artifact { return experiment.ExtraArtifacts() }

// DescribeArtifact returns a one-line description of a paper artifact or
// ablation study.
func DescribeArtifact(a Artifact) string { return experiment.Describe(a) }
