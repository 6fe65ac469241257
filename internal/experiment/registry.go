package experiment

import (
	"bytes"
	"fmt"
	"sort"

	"chiron/internal/accuracy"
)

// Artifact identifies one table or figure of the paper's evaluation, or
// one of the ablation studies shipped beside them.
type Artifact string

// The reproduced artifacts.
const (
	Fig3  Artifact = "fig3"  // Chiron convergence, MNIST, 5 nodes
	Fig4  Artifact = "fig4"  // accuracy/rounds/time-eff vs budget, MNIST, 5 nodes
	Fig5  Artifact = "fig5"  // same panels, Fashion-MNIST
	Fig6  Artifact = "fig6"  // same panels, CIFAR-10
	Fig7a Artifact = "fig7a" // Chiron convergence, 100 nodes
	Fig7b Artifact = "fig7b" // DRL-based convergence, 100 nodes
	Tab1  Artifact = "tab1"  // Chiron at 100 nodes across budgets
)

// Ablation studies beyond the paper's artifacts, each probing one design
// choice documented in DESIGN.md.
const (
	AblLambda Artifact = "abl-lambda" // preference coefficient λ sweep
	AblReward Artifact = "abl-reward" // Eqn. 9 vs literal Eqn. 14 time weighting
	AblRobust Artifact = "abl-robust" // frozen policy under bandwidth jitter / node churn
	AblNonIID Artifact = "abl-noniid" // real FedAvg training, IID vs Dirichlet splits
	AblFaults Artifact = "abl-faults" // frozen policy under escalating injected faults
)

// runner executes an artifact at a scale with a worker bound and returns
// its rendered report and its CSV series (nil for ablations).
type runner func(a Artifact, scale float64, jobs int) (report string, csv []byte, err error)

// entry is one row of the artifact table.
type entry struct {
	id   Artifact
	desc string
	run  runner
}

// paperArtifacts counts the table's leading rows that reproduce the
// paper's own evaluation; the ablation studies follow them.
const paperArtifacts = 7

// table lists every artifact: the paper's, in paper order, then the
// ablation studies. It is a function rather than a variable because the
// runners render their titles through Describe, which reads it.
func table() []entry {
	return []entry{
		{Fig3, "Fig. 3: Chiron episode-reward convergence (MNIST, 5 nodes, η=300)", convergenceArtifact},
		{Fig4, "Fig. 4: accuracy / rounds / time efficiency vs budget (MNIST, 5 nodes)", comparisonArtifact},
		{Fig5, "Fig. 5: accuracy / rounds / time efficiency vs budget (Fashion-MNIST, 5 nodes)", comparisonArtifact},
		{Fig6, "Fig. 6: accuracy / rounds / time efficiency vs budget (CIFAR-10, 5 nodes)", comparisonArtifact},
		{Fig7a, "Fig. 7(a): Chiron exterior-agent convergence (MNIST, 100 nodes, η=300)", convergenceArtifact},
		{Fig7b, "Fig. 7(b): DRL-based convergence failure (MNIST, 100 nodes, η=300)", convergenceArtifact},
		{Tab1, "Table I: Chiron under MNIST with 100 edge nodes across budgets", comparisonArtifact},
		{AblLambda, "Ablation: preference coefficient λ sweep (accuracy-vs-time trade-off)", ablation(runLambdaAblation)},
		{AblReward, "Ablation: Eqn. 9-consistent vs literal Eqn. 14 exterior reward", ablation(runRewardAblation)},
		{AblRobust, "Ablation: trained policy under bandwidth jitter and node churn", ablation(runRobustnessAblation)},
		{AblNonIID, "Ablation: real FedAvg training under IID vs Dirichlet non-IID splits", ablation(runNonIIDAblation)},
		{AblFaults, "Ablation: trained policy under escalating crash/straggler/drop/corruption faults", ablation(runFaultSweep)},
	}
}

func ids(entries []entry) []Artifact {
	out := make([]Artifact, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// Artifacts lists every reproduced paper artifact in paper order.
func Artifacts() []Artifact { return ids(table()[:paperArtifacts]) }

// ExtraArtifacts lists the ablation studies.
func ExtraArtifacts() []Artifact { return ids(table()[paperArtifacts:]) }

func lookup(a Artifact) (entry, bool) {
	for _, e := range table() {
		if e.id == a {
			return e, true
		}
	}
	return entry{}, false
}

// Describe returns a one-line description of an artifact.
func Describe(a Artifact) string {
	if e, ok := lookup(a); ok {
		return e.desc
	}
	return fmt.Sprintf("unknown artifact %q", a)
}

// RunJobs executes an artifact at the given scale (1.0 = full paper scale)
// with a worker bound for its job plan (1 = serial, 0 = GOMAXPROCS). It
// returns the rendered text report and the CSV series for external
// plotting, nil for ablation studies. Both are byte-identical at any
// worker count.
func RunJobs(a Artifact, scale float64, jobs int) (report string, csv []byte, err error) {
	if !(scale > 0 && scale <= 1) {
		return "", nil, fmt.Errorf("experiment: scale %v outside (0,1]", scale)
	}
	e, ok := lookup(a)
	if !ok {
		return "", nil, fmt.Errorf("experiment: unknown artifact %q", a)
	}
	return e.run(a, scale, jobs)
}

// comparisonArtifact runs a budget-sweep artifact from its defaults.
func comparisonArtifact(a Artifact, scale float64, jobs int) (string, []byte, error) {
	params, err := ComparisonDefaults(a)
	if err != nil {
		return "", nil, err
	}
	params.Jobs = jobs
	cmp, err := RunComparison(params.Scale(scale))
	if err != nil {
		return "", nil, err
	}
	var csv bytes.Buffer
	if err := WriteComparisonCSV(&csv, cmp); err != nil {
		return "", nil, err
	}
	return RenderComparison(a, cmp), csv.Bytes(), nil
}

// convergenceArtifact runs a learning-curve artifact from its defaults. A
// curve is one sequential training run, so jobs does not apply.
func convergenceArtifact(a Artifact, scale float64, _ int) (string, []byte, error) {
	params, err := ConvergenceDefaults(a)
	if err != nil {
		return "", nil, err
	}
	conv, err := RunConvergence(params.Scale(scale))
	if err != nil {
		return "", nil, err
	}
	var csv bytes.Buffer
	if err := WriteConvergenceCSV(&csv, conv); err != nil {
		return "", nil, err
	}
	return RenderConvergence(a, conv), csv.Bytes(), nil
}

// ablation adapts an ablation study, which renders only a report, to a
// runner.
func ablation(run func(scale float64, jobs int) (string, error)) runner {
	return func(_ Artifact, scale float64, jobs int) (string, []byte, error) {
		report, err := run(scale, jobs)
		return report, nil, err
	}
}

// ComparisonDefaults returns the full-scale parameters for a comparison
// artifact (fig4, fig5, fig6, tab1).
func ComparisonDefaults(a Artifact) (ComparisonParams, error) {
	threeWay := []MechanismKind{KindChiron, KindDRLBased, KindGreedy}
	switch a {
	case Fig4:
		return ComparisonParams{
			Preset: accuracy.PresetMNIST, Nodes: 5,
			Budgets:    []float64{100, 200, 300, 400, 500},
			Mechanisms: threeWay, TrainEpisodes: 500, EvalEpisodes: 5, Seed: 7,
		}, nil
	case Fig5:
		return ComparisonParams{
			Preset: accuracy.PresetFashion, Nodes: 5,
			Budgets:    []float64{100, 200, 300, 400, 500},
			Mechanisms: threeWay, TrainEpisodes: 500, EvalEpisodes: 5, Seed: 7,
		}, nil
	case Fig6:
		// CIFAR-10 converges more slowly, so the paper uses larger budgets.
		return ComparisonParams{
			Preset: accuracy.PresetCIFAR, Nodes: 5,
			Budgets:    []float64{200, 400, 600, 800, 1000},
			Mechanisms: threeWay, TrainEpisodes: 500, EvalEpisodes: 5, Seed: 7,
		}, nil
	case Tab1:
		return ComparisonParams{
			Preset: accuracy.PresetMNISTLarge, Nodes: 100,
			Budgets:    []float64{140, 220, 300, 380},
			Mechanisms: []MechanismKind{KindChiron}, TrainEpisodes: 500, EvalEpisodes: 3, Seed: 7,
			TimeWeight: 0.075,
		}, nil
	default:
		return ComparisonParams{}, fmt.Errorf("experiment: %q is not a comparison artifact", a)
	}
}

// ConvergenceDefaults returns the full-scale parameters for a convergence
// artifact (fig3, fig7a, fig7b).
func ConvergenceDefaults(a Artifact) (ConvergenceParams, error) {
	switch a {
	case Fig3:
		return ConvergenceParams{
			Preset: accuracy.PresetMNIST, Nodes: 5, Budget: 300,
			Mechanism: KindChiron, Episodes: 500, Window: 20, Seed: 7,
		}, nil
	case Fig7a:
		return ConvergenceParams{
			Preset: accuracy.PresetMNISTLarge, Nodes: 100, Budget: 300,
			Mechanism: KindChiron, Episodes: 500, Window: 20, Seed: 7,
			TimeWeight: 0.075,
		}, nil
	case Fig7b:
		return ConvergenceParams{
			Preset: accuracy.PresetMNISTLarge, Nodes: 100, Budget: 300,
			Mechanism: KindDRLBased, Episodes: 500, Window: 20, Seed: 7,
			TimeWeight: 0.075,
		}, nil
	default:
		return ConvergenceParams{}, fmt.Errorf("experiment: %q is not a convergence artifact", a)
	}
}

// sortedNames returns the mechanism names of a point in deterministic
// (Chiron-first, then alphabetical) order.
func sortedNames(p BudgetPoint) []string {
	names := make([]string, 0, len(p.Results))
	for name := range p.Results {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i] == "Chiron" {
			return true
		}
		if names[j] == "Chiron" {
			return false
		}
		return names[i] < names[j]
	})
	return names
}
