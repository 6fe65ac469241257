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
	"chiron/internal/rl"
)

// chironEvalRow builds and trains a Chiron agent on env through the shared
// mechanism.TrainAndEvaluate path and condenses its evaluation to one table
// row.
func chironEvalRow(env *edgeenv.Env, seed int64, scale float64, evalEpisodes int) (evalResult, error) {
	ch, err := core.New(env, TunedChironConfig(seed))
	if err != nil {
		return evalResult{}, err
	}
	summary, err := mechanism.TrainAndEvaluate(ch, ScaleCount(500, scale), evalEpisodes)
	if err != nil {
		return evalResult{}, err
	}
	return evalResult{
		Accuracy:       summary.FinalAccuracy,
		Rounds:         summary.Rounds,
		TimeEfficiency: summary.TimeEfficiency,
		Utility:        summary.ServerUtility,
	}, nil
}

// evalResult is the condensed row every ablation table reports.
type evalResult struct {
	Accuracy       float64
	Rounds         int
	TimeEfficiency float64
	Utility        float64
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
// the cost of total time. One job per λ.
func runLambdaAblation(scale float64, jobs int) (string, error) {
	lambdas := []float64{500, 2000, 8000}
	plan := Plan[evalResult]{Name: "abl-lambda", Workers: jobs}
	for _, lambda := range lambdas {
		plan.Jobs = append(plan.Jobs, Job[evalResult]{
			Label: fmt.Sprintf("Chiron λ=%v seed=7", lambda),
			Run: func() (evalResult, error) {
				env, err := BuildEnv(Setup{Preset: accuracy.PresetMNIST, Nodes: 5, Budget: 300, Seed: 7, Lambda: lambda})
				if err != nil {
					return evalResult{}, err
				}
				return chironEvalRow(env, 7, scale, 3)
			},
		})
	}
	results, err := plan.Execute()
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(lambdas))
	for i, lambda := range lambdas {
		res := results[i]
		rows = append(rows, fmt.Sprintf("%-8.0f %10.3f %8d %10.1f%% %12.1f",
			lambda, res.Accuracy, res.Rounds, 100*res.TimeEfficiency, res.Utility))
	}
	return renderRows(
		Describe(AblLambda),
		fmt.Sprintf("%-8s %10s %8s %10s %12s", "lambda", "accuracy", "rounds", "time-eff", "utility"),
		rows), nil
}

// runRewardAblation compares the exterior time weighting: the calibrated
// Eqn. 9-consistent default, the raw w=1, and the literal Eqn. 14 (w=λ).
// One job per weighting.
func runRewardAblation(scale float64, jobs int) (string, error) {
	weights := []struct {
		name string
		w    float64
	}{
		{"calibrated (0.3)", 0.3},
		{"unit (1.0)", 1.0},
		{"eqn14 literal (λ)", 2000},
	}
	plan := Plan[evalResult]{Name: "abl-reward", Workers: jobs}
	for _, tw := range weights {
		plan.Jobs = append(plan.Jobs, Job[evalResult]{
			Label: fmt.Sprintf("Chiron w=%v seed=7", tw.w),
			Run: func() (evalResult, error) {
				env, err := BuildEnv(Setup{Preset: accuracy.PresetMNIST, Nodes: 5, Budget: 300, Seed: 7, TimeWeight: tw.w})
				if err != nil {
					return evalResult{}, err
				}
				return chironEvalRow(env, 7, scale, 3)
			},
		})
	}
	results, err := plan.Execute()
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(weights))
	for i, tw := range weights {
		res := results[i]
		rows = append(rows, fmt.Sprintf("%-20s %10.3f %8d %10.1f%%",
			tw.name, res.Accuracy, res.Rounds, 100*res.TimeEfficiency))
	}
	return renderRows(
		Describe(AblReward),
		fmt.Sprintf("%-20s %10s %8s %10s", "time weight", "accuracy", "rounds", "time-eff"),
		rows), nil
}

// frozenSetup is the clean 5-node η=300 MNIST environment the
// frozen-policy studies train on and then perturb.
func frozenSetup(seed int64) Setup {
	return Setup{Preset: accuracy.PresetMNIST, Nodes: 5, Budget: 300, Seed: seed}
}

// trainFrozenChiron trains a Chiron agent on a setup's clean environment
// and returns its checkpoint for EvalFrozen.
func trainFrozenChiron(s Setup, scale float64) (*rl.Checkpoint, error) {
	env, err := BuildEnv(s)
	if err != nil {
		return nil, err
	}
	ch, err := core.New(env, TunedChironConfig(s.Seed))
	if err != nil {
		return nil, err
	}
	if _, err := ch.Train(ScaleCount(500, scale), nil); err != nil {
		return nil, err
	}
	return ch.Checkpoint()
}

// runRobustnessAblation trains once on the clean environment and evaluates
// the frozen policy under increasing churn. One job per scenario, each
// owning its environment, churn RNG and restored agent; the checkpoint is
// shared read-only.
func runRobustnessAblation(scale float64, jobs int) (string, error) {
	const seed = 7
	setup := frozenSetup(seed)
	ck, err := trainFrozenChiron(setup, scale)
	if err != nil {
		return "", err
	}
	scenarios := []struct {
		name         string
		jitter       float64
		availability float64
	}{
		{"clean", 0, 0},
		{"jitter 10%", 0.10, 0},
		{"jitter 30%", 0.30, 0},
		{"availability 80%", 0, 0.80},
		{"jitter 30% + avail 80%", 0.30, 0.80},
	}
	plan := Plan[mechanism.EpisodeResult]{Name: "abl-robust", Workers: jobs}
	for _, sc := range scenarios {
		plan.Jobs = append(plan.Jobs, Job[mechanism.EpisodeResult]{
			Label: fmt.Sprintf("Chiron %s seed=%d", sc.name, seed),
			Run: func() (mechanism.EpisodeResult, error) {
				res, _, err := EvalFrozen(ck, setup, 3, SoftChurn(sc.jitter, sc.availability, seed+2))
				return res, err
			},
		})
	}
	results, err := plan.Execute()
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(scenarios))
	for i, sc := range scenarios {
		res := results[i]
		rows = append(rows, fmt.Sprintf("%-26s %10.3f %8d %10.1f%%",
			sc.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency))
	}
	return renderRows(
		Describe(AblRobust),
		fmt.Sprintf("%-26s %10s %8s %10s", "scenario", "accuracy", "rounds", "time-eff"),
		rows), nil
}

// SoftChurn returns an EvalFrozen perturbation with relative bandwidth
// jitter and a per-round node availability (0 = always present), both
// drawn from a stream seeded at seed.
func SoftChurn(jitter, availability float64, seed int64) func(*edgeenv.Config) error {
	return func(cfg *edgeenv.Config) error {
		cfg.CommJitter = jitter
		cfg.Availability = availability
		if jitter > 0 || (availability > 0 && availability < 1) {
			cfg.Rng = rand.New(rand.NewSource(seed))
		}
		return nil
	}
}

// InjectFaults returns an EvalFrozen perturbation that samples crash,
// straggler, drop and corruption faults at rates from seed, under a
// fleetDeadline round deadline with two upload retries. Zero rates leave
// the config clean.
func InjectFaults(rates faults.Rates, seed int64) func(*edgeenv.Config) error {
	return func(cfg *edgeenv.Config) error {
		if !rates.Any() {
			return nil
		}
		sampler, err := faults.NewSampler(rates, seed)
		if err != nil {
			return err
		}
		cfg.Faults = sampler
		cfg.RoundDeadline = fleetDeadline(cfg.Fleet)
		cfg.MaxRetries = 2
		cfg.RetryBackoff = 1
		return nil
	}
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

// runFaultSweep trains Chiron on the clean environment once, then
// evaluates the frozen policy under escalating injected fault rates — the
// degradation table for crash, straggler, upload-drop, and corruption
// failures combined with a round deadline and zero failure payment. One job
// per fault level; each counts its failures before it returns.
func runFaultSweep(scale float64, jobs int) (string, error) {
	const seed = 7
	setup := frozenSetup(seed)
	ck, err := trainFrozenChiron(setup, scale)
	if err != nil {
		return "", err
	}
	base := faults.Rates{Crash: 0.02, Straggle: 0.05, Drop: 0.05, Corrupt: 0.02}
	levels := []struct {
		name  string
		rates faults.Rates
	}{
		{"clean", faults.Rates{}},
		{"light (1x)", base},
		{"moderate (3x)", base.Scale(3)},
		{"severe (6x)", base.Scale(6)},
	}
	type faultRow struct {
		res      mechanism.EpisodeResult
		failures int
	}
	plan := Plan[faultRow]{Name: "abl-faults", Workers: jobs}
	for _, lv := range levels {
		plan.Jobs = append(plan.Jobs, Job[faultRow]{
			Label: fmt.Sprintf("Chiron %s seed=%d", lv.name, seed),
			Run: func() (faultRow, error) {
				res, env, err := EvalFrozen(ck, setup, 3, InjectFaults(lv.rates, seed+3))
				if err != nil {
					return faultRow{}, err
				}
				// The ledger still holds the last evaluation episode, so its
				// per-round outcomes give a representative failure count.
				row := faultRow{res: res}
				for _, r := range env.Ledger().Rounds() {
					row.failures += r.Failures()
				}
				return row, nil
			},
		})
	}
	results, err := plan.Execute()
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(levels))
	for i, lv := range levels {
		res := results[i].res
		rows = append(rows, fmt.Sprintf("%-16s %10.3f %8d %10.1f%% %10d",
			lv.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, results[i].failures))
	}
	return renderRows(
		Describe(AblFaults),
		fmt.Sprintf("%-16s %10s %8s %10s %10s", "fault level", "accuracy", "rounds", "time-eff", "failures*"),
		rows) + "(*failures counted over the final evaluation episode)\n", nil
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
					Train:        fl.DefaultConfig(),
					NumNodes:     5,
					TestFraction: 0.2,
					Seed:         11,
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
