package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"chiron/internal/accuracy"
	"chiron/internal/core"
	"chiron/internal/dataset"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/fl"
	"chiron/internal/mechanism"
	"chiron/internal/nn"
)

// ablationSetup is the clean 5-node η=300 MNIST environment the Chiron
// ablations vary (chironSweep) or train on and then perturb (frozenSweep).
var ablationSetup = Setup{Preset: accuracy.PresetMNIST, Nodes: 5, Budget: 300, Seed: 7}

// chironSweep trains and evaluates Chiron once per row, one cell job each,
// on ablationSetup as vary changes it for row i; vary returns the row's
// grid point for the job label. The evaluations come back in row order.
func chironSweep(a Artifact, scale float64, jobs, rows int, vary func(i int, s *Setup) string) ([]mechanism.EpisodeResult, error) {
	plan := Plan[mechanism.EpisodeResult]{Name: string(a), Workers: jobs}
	for i := 0; i < rows; i++ {
		s := ablationSetup
		point := vary(i, &s)
		plan.Jobs = append(plan.Jobs, cellJob(point, s, KindChiron, ScaleCount(500, scale), 3))
	}
	return plan.Execute()
}

// frozenRow is one frozen-policy evaluation regime: ablationSetup with
// relative bandwidth jitter, a per-round node availability (0 = always
// present) and injected fault rates (zero = none).
type frozenRow struct {
	name                 string
	jitter, availability float64
	rates                faults.Rates
}

// env builds ablationSetup's environment with the row's disturbance:
// jitter and availability draw from a stream seeded at Seed+2, and faults
// sample from Seed+3 under a fleetDeadline round deadline with two upload
// retries.
func (r frozenRow) env() (*edgeenv.Env, error) {
	cfg, err := ablationSetup.Config()
	if err != nil {
		return nil, err
	}
	cfg.CommJitter = r.jitter
	cfg.Availability = r.availability
	if r.jitter > 0 || (r.availability > 0 && r.availability < 1) {
		cfg.Rng = rand.New(rand.NewSource(ablationSetup.Seed + 2))
	}
	if r.rates.Any() {
		sampler, err := faults.NewSampler(r.rates, ablationSetup.Seed+3)
		if err != nil {
			return nil, err
		}
		cfg.Faults = sampler
		cfg.RoundDeadline = fleetDeadline(cfg.Fleet)
		cfg.MaxRetries = 2
		cfg.RetryBackoff = 1
	}
	return edgeenv.New(cfg)
}

// frozenSweep trains Chiron once on ablationSetup, then evaluates the frozen
// policy over 3 deterministic episodes per row, one job per row owning its
// environment, disturbance RNG and restored agent (the checkpoint is shared
// read-only). Each row also counts the failures of its last evaluation
// episode, which the environment's ledger still holds.
func frozenSweep(a Artifact, scale float64, jobs int, rows []frozenRow) ([]mechanism.EpisodeResult, []int, error) {
	m, err := ablationSetup.open(KindChiron)
	if err != nil {
		return nil, nil, err
	}
	ch := m.(*core.Chiron)
	if _, err := ch.Train(ScaleCount(500, scale), nil); err != nil {
		return nil, nil, err
	}
	ck, err := ch.Checkpoint()
	if err != nil {
		return nil, nil, err
	}
	failures := make([]int, len(rows))
	plan := Plan[mechanism.EpisodeResult]{Name: string(a), Workers: jobs}
	for i, row := range rows {
		plan.Jobs = append(plan.Jobs, Job[mechanism.EpisodeResult]{
			Label: fmt.Sprintf("%s %s seed=%d", KindChiron, row.name, ablationSetup.Seed),
			Run: func() (mechanism.EpisodeResult, error) {
				env, err := row.env()
				if err != nil {
					return mechanism.EpisodeResult{}, err
				}
				agent, err := core.New(env, TunedChironConfig(ablationSetup.Seed))
				if err != nil {
					return mechanism.EpisodeResult{}, err
				}
				if err := agent.Restore(ck); err != nil {
					return mechanism.EpisodeResult{}, err
				}
				res, err := mechanism.Evaluate(agent, 3)
				if err != nil {
					return res, err
				}
				for _, r := range env.Ledger().Rounds() {
					failures[i] += r.Failures()
				}
				return res, nil
			},
		})
	}
	results, err := plan.Execute()
	return results, failures, err
}

func renderRows(title string, header string, rows []string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintln(&b, header)
	for _, r := range rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// runLambdaAblation sweeps the preference coefficient λ: larger λ should
// push the learned policy toward more rounds and higher final accuracy at
// the cost of total time.
func runLambdaAblation(scale float64, jobs int) (string, error) {
	lambdas := []float64{500, 2000, 8000}
	results, err := chironSweep(AblLambda, scale, jobs, len(lambdas), func(i int, s *Setup) string {
		s.Lambda = lambdas[i]
		return fmt.Sprintf("λ=%v", lambdas[i])
	})
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(lambdas))
	for i, lambda := range lambdas {
		res := results[i]
		rows = append(rows, fmt.Sprintf("%-8.0f %10.3f %8d %10.1f%% %12.1f",
			lambda, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, res.ServerUtility))
	}
	return renderRows(
		Describe(AblLambda),
		fmt.Sprintf("%-8s %10s %8s %10s %12s", "lambda", "accuracy", "rounds", "time-eff", "utility"),
		rows), nil
}

// runRewardAblation compares the exterior time weighting: the calibrated
// Eqn. 9-consistent default, the raw w=1, and the literal Eqn. 14 (w=λ).
func runRewardAblation(scale float64, jobs int) (string, error) {
	weights := []struct {
		name string
		w    float64
	}{
		{"calibrated (0.3)", 0.3},
		{"unit (1.0)", 1.0},
		{"eqn14 literal (λ)", 2000},
	}
	results, err := chironSweep(AblReward, scale, jobs, len(weights), func(i int, s *Setup) string {
		s.TimeWeight = weights[i].w
		return fmt.Sprintf("w=%v", weights[i].w)
	})
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(weights))
	for i, tw := range weights {
		res := results[i]
		rows = append(rows, fmt.Sprintf("%-20s %10.3f %8d %10.1f%%",
			tw.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency))
	}
	return renderRows(
		Describe(AblReward),
		fmt.Sprintf("%-20s %10s %8s %10s", "time weight", "accuracy", "rounds", "time-eff"),
		rows), nil
}

// runRobustnessAblation evaluates the frozen policy under increasing
// bandwidth jitter and node churn.
func runRobustnessAblation(scale float64, jobs int) (string, error) {
	rows := []frozenRow{
		{name: "clean"},
		{name: "jitter 10%", jitter: 0.10},
		{name: "jitter 30%", jitter: 0.30},
		{name: "availability 80%", availability: 0.80},
		{name: "jitter 30% + avail 80%", jitter: 0.30, availability: 0.80},
	}
	results, _, err := frozenSweep(AblRobust, scale, jobs, rows)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(rows))
	for i, row := range rows {
		res := results[i]
		lines = append(lines, fmt.Sprintf("%-26s %10.3f %8d %10.1f%%",
			row.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency))
	}
	return renderRows(
		Describe(AblRobust),
		fmt.Sprintf("%-26s %10s %8s %10s", "scenario", "accuracy", "rounds", "time-eff"),
		lines), nil
}

// fleetDeadline returns the round deadline the fault experiments use: 20%
// above the slowest clean response the fleet can produce (minimum
// frequency, nominal upload), so no healthy node is ever cut but crashed
// nodes time out and ≥1.5× stragglers lose the round.
func fleetDeadline(fleet *device.Fleet) float64 {
	var worst float64
	for i := 0; i < fleet.Len(); i++ {
		if t := fleet.Workload(i)/fleet.FreqMin[i] + fleet.CommTime[i]; t > worst {
			worst = t
		}
	}
	return worst * 1.2
}

// runFaultSweep evaluates the frozen policy under escalating injected fault
// rates — the degradation table for crash, straggler, upload-drop, and
// corruption failures combined with a round deadline and zero failure
// payment.
func runFaultSweep(scale float64, jobs int) (string, error) {
	base := faults.Rates{Crash: 0.02, Straggle: 0.05, Drop: 0.05, Corrupt: 0.02}
	rows := []frozenRow{
		{name: "clean"},
		{name: "light (1x)", rates: base},
		{name: "moderate (3x)", rates: base.Scale(3)},
		{name: "severe (6x)", rates: base.Scale(6)},
	}
	results, failures, err := frozenSweep(AblFaults, scale, jobs, rows)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(rows))
	for i, row := range rows {
		res := results[i]
		lines = append(lines, fmt.Sprintf("%-16s %10.3f %8d %10.1f%% %10d",
			row.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, failures[i]))
	}
	return renderRows(
		Describe(AblFaults),
		fmt.Sprintf("%-16s %10s %8s %10s %10s", "fault level", "accuracy", "rounds", "time-eff", "failures*"),
		lines) + "(*failures counted over the final evaluation episode)\n", nil
}

// runNonIIDAblation runs real FedAvg training (no surrogate) with IID and
// Dirichlet splits, reporting the measured accuracy after a fixed number
// of federated rounds per split. One job per split, each owning its own
// trainer and seeded dataset.
func runNonIIDAblation(scale float64, jobs int) (string, error) {
	rounds := ScaleCount(30, scale)
	splits := []struct {
		name string
		part dataset.Partitioner
	}{
		{"iid", dataset.IID{}},
		{"dirichlet α=0.5", dataset.Dirichlet{Alpha: 0.5}},
		{"dirichlet α=0.1", dataset.Dirichlet{Alpha: 0.1}},
		{"shards (2/node)", dataset.Shards{ShardsPerNode: 2}},
	}
	spec, hidden, err := accuracy.Task(accuracy.PresetMNIST, 1500)
	if err != nil {
		return "", err
	}
	plan := Plan[float64]{Name: "abl-noniid", Workers: jobs}
	for _, sp := range splits {
		plan.Jobs = append(plan.Jobs, Job[float64]{
			Label: fmt.Sprintf("FedAvg %s seed=11", sp.name),
			Run: func() (float64, error) {
				trainer, err := accuracy.NewRealTrainer(accuracy.RealTrainerConfig{
					Spec:        spec,
					Partitioner: sp.part,
					Factory: func(rng *rand.Rand) (*nn.Network, error) {
						return nn.NewClassifierMLP(rng, spec.Dim(), hidden, spec.Classes)
					},
					Train:    fl.DefaultConfig(),
					NumNodes: 5,
					Seed:     11,
				})
				if err != nil {
					return 0, err
				}
				participants := []int{0, 1, 2, 3, 4}
				var acc float64
				for k := 0; k < rounds; k++ {
					if acc, err = trainer.Advance(participants); err != nil {
						return 0, err
					}
				}
				return acc, nil
			},
		})
	}
	results, err := plan.Execute()
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(splits))
	for i, sp := range splits {
		rows = append(rows, fmt.Sprintf("%-18s %10.3f", sp.name, results[i]))
	}
	return renderRows(
		fmt.Sprintf("%s (%d real FedAvg rounds each)", Describe(AblNonIID), rounds),
		fmt.Sprintf("%-18s %10s", "split", "accuracy"),
		rows), nil
}
