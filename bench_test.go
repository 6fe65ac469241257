package chiron_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Sec. VI). Each BenchmarkFig*/BenchmarkTable* below runs the
// same experiment pipeline as `chiron-bench`, scaled down by -benchscale
// (default 0.02 → 10 training episodes per learner) so `go test -bench=.`
// finishes in minutes; pass -benchscale=1.0 for the paper's full 500
// episodes. Headline numbers are emitted as custom benchmark metrics
// (accuracy, rounds, time-eff%), so regression in the *shape* of a result
// is visible straight from benchmark output.
//
// Ablation benchmarks cover the design choices called out in DESIGN.md:
// the hierarchical split vs a single agent, the history window L, the
// Eqn. 9 vs literal Eqn. 14 reward weighting, and surrogate vs real
// accuracy measurement.

import (
	"flag"
	"math/rand"
	"testing"

	"chiron"
	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/dataset"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/fl"
	"chiron/internal/nn"
	"chiron/internal/rl"
)

var benchScale = flag.Float64("benchscale", 0.02, "experiment scale for paper-artifact benchmarks (1.0 = full paper runs)")

// reportComparison surfaces the Chiron row of the largest budget as
// benchmark metrics.
func reportComparison(b *testing.B, cmp *experiment.Comparison) {
	b.Helper()
	if len(cmp.Points) == 0 {
		return
	}
	last := cmp.Points[len(cmp.Points)-1]
	for name, r := range last.Results {
		if name != "Chiron" {
			continue
		}
		b.ReportMetric(r.FinalAccuracy, "accuracy")
		b.ReportMetric(float64(r.Rounds), "rounds")
		b.ReportMetric(100*r.TimeEfficiency, "time-eff%")
	}
}

func benchComparison(b *testing.B, a experiment.Artifact) {
	b.Helper()
	params, err := experiment.ComparisonDefaults(a)
	if err != nil {
		b.Fatal(err)
	}
	scaled := params.Scale(*benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := experiment.RunComparison(scaled)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, cmp)
		}
	}
}

func benchConvergence(b *testing.B, a experiment.Artifact) {
	b.Helper()
	params, err := experiment.ConvergenceDefaults(a)
	if err != nil {
		b.Fatal(err)
	}
	scaled := params.Scale(*benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv, err := experiment.RunConvergence(scaled)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := conv.Episodes[len(conv.Episodes)-1]
			b.ReportMetric(conv.SmoothedReward[len(conv.SmoothedReward)-1], "reward")
			b.ReportMetric(float64(last.Rounds), "rounds")
		}
	}
}

// BenchmarkFig3ConvergenceMNIST regenerates Fig. 3: Chiron's episode-reward
// learning curve on MNIST with 5 nodes, η=300.
func BenchmarkFig3ConvergenceMNIST(b *testing.B) { benchConvergence(b, experiment.Fig3) }

// BenchmarkFig4MNIST regenerates Fig. 4(a–c): final accuracy, rounds, and
// time efficiency vs budget on MNIST for Chiron, DRL-based, and Greedy.
func BenchmarkFig4MNIST(b *testing.B) { benchComparison(b, experiment.Fig4) }

// BenchmarkFig5FashionMNIST regenerates Fig. 5(a–c) on Fashion-MNIST.
func BenchmarkFig5FashionMNIST(b *testing.B) { benchComparison(b, experiment.Fig5) }

// BenchmarkFig6CIFAR10 regenerates Fig. 6(a–c) on CIFAR-10 with the
// paper's larger budgets.
func BenchmarkFig6CIFAR10(b *testing.B) { benchComparison(b, experiment.Fig6) }

// BenchmarkFig7aLargeScaleChiron regenerates Fig. 7(a): Chiron's exterior
// convergence with 100 edge nodes.
func BenchmarkFig7aLargeScaleChiron(b *testing.B) { benchConvergence(b, experiment.Fig7a) }

// BenchmarkFig7bLargeScaleDRLBased regenerates Fig. 7(b): the single-agent
// DRL-based approach at 100 nodes (the paper's non-convergence case).
func BenchmarkFig7bLargeScaleDRLBased(b *testing.B) { benchConvergence(b, experiment.Fig7b) }

// BenchmarkTable1LargeScale regenerates Table I: Chiron at 100 nodes
// across budgets 140–380.
func BenchmarkTable1LargeScale(b *testing.B) { benchComparison(b, experiment.Tab1) }

// ---------------------------------------------------------------------------
// Ablation benchmarks (design choices from DESIGN.md).

// ablationEnv builds the standard 5-node MNIST environment.
func ablationEnv(b *testing.B, timeWeight float64, historyLen int) *edgeenv.Env {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(5))
	if err != nil {
		b.Fatal(err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(8)), accuracy.PresetMNIST, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, 300)
	if timeWeight > 0 {
		cfg.TimeWeight = timeWeight
	}
	if historyLen > 0 {
		cfg.HistoryLen = historyLen
	}
	env, err := edgeenv.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func ablationEpisodes() int {
	n := int(500 * *benchScale)
	if n < 3 {
		n = 3
	}
	return n
}

func runChironAblation(b *testing.B, env *edgeenv.Env) {
	b.Helper()
	episodes := ablationEpisodes()
	for i := 0; i < b.N; i++ {
		ch, err := core.New(env, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Train(episodes, nil); err != nil {
			b.Fatal(err)
		}
		res, err := ch.Evaluate(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FinalAccuracy, "accuracy")
			b.ReportMetric(100*res.TimeEfficiency, "time-eff%")
		}
	}
}

// BenchmarkAblationHierarchicalAgent trains the full two-layer agent — the
// reference point for BenchmarkAblationSingleAgent.
func BenchmarkAblationHierarchicalAgent(b *testing.B) {
	runChironAblation(b, ablationEnv(b, 0, 0))
}

// BenchmarkAblationSingleAgent trains a single flat PPO agent (budget-blind
// price vector, as in the DRL-based architecture) on the same environment,
// quantifying what the hierarchy buys.
func BenchmarkAblationSingleAgent(b *testing.B) {
	env := ablationEnv(b, 0, 0)
	episodes := ablationEpisodes()
	for i := 0; i < b.N; i++ {
		cfg := baselines.DefaultDRLBasedConfig()
		cfg.PPO.Gamma = 0.95 // same horizon as Chiron; only the architecture differs
		cfg.PPO.CriticLR = 3e-4
		d, err := baselines.NewDRLBased(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Train(episodes, nil); err != nil {
			b.Fatal(err)
		}
		res, err := core.EvaluateMechanism(d, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FinalAccuracy, "accuracy")
			b.ReportMetric(100*res.TimeEfficiency, "time-eff%")
		}
	}
}

// BenchmarkAblationHistoryL1 shrinks the exterior state's history window
// to a single round (the paper uses L=4).
func BenchmarkAblationHistoryL1(b *testing.B) {
	runChironAblation(b, ablationEnv(b, 0, 1))
}

// BenchmarkAblationHistoryL8 doubles the history window to L=8.
func BenchmarkAblationHistoryL8(b *testing.B) {
	runChironAblation(b, ablationEnv(b, 0, 8))
}

// BenchmarkAblationEqn14Literal uses the literal Eqn. 14 reward
// r^E = λΔA − λT_k instead of the Eqn. 9-consistent weighting.
func BenchmarkAblationEqn14Literal(b *testing.B) {
	runChironAblation(b, ablationEnv(b, 2000, 0))
}

// BenchmarkAblationRealTraining swaps the surrogate accuracy model for
// actual FedAvg neural training (the full paper pipeline).
func BenchmarkAblationRealTraining(b *testing.B) {
	episodes := ablationEpisodes() / 4
	if episodes < 2 {
		episodes = 2
	}
	for i := 0; i < b.N; i++ {
		sys, err := chiron.NewSystem(chiron.SystemConfig{
			Nodes: 5, Budget: 100, Seed: 7, RealTraining: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Train(episodes, nil); err != nil {
			b.Fatal(err)
		}
		res, err := sys.Evaluate(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FinalAccuracy, "accuracy")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkEnvStep measures one environment round (best responses, FedAvg
// surrogate, ledger commit) at N=5.
func BenchmarkEnvStep(b *testing.B) {
	env := ablationEnv(b, 0, 0)
	if err := env.Reset(); err != nil {
		b.Fatal(err)
	}
	prices := make([]float64, env.NumNodes())
	for i, n := range env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax) * 0.3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Step(prices)
		if err != nil {
			b.Fatal(err)
		}
		if res.Done {
			b.StopTimer()
			if err := env.Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkBestResponse measures the closed-form Eqn. 11 node decision.
func BenchmarkBestResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nodes, err := device.NewFleet(rng, device.DefaultFleetSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	n := nodes[0]
	price := n.PriceForFreq(1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := n.BestResponse(price)
		if !resp.Participating {
			b.Fatal("node declined")
		}
	}
}

// BenchmarkPPOUpdate measures one full PPO update (M epochs) over a
// 32-transition episode at Chiron's exterior dimensions (N=5, L=4).
func BenchmarkPPOUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	stateDim := 3*5*4 + 2
	agent, err := rl.NewPPO(rng, stateDim, 1, rl.DefaultPPOConfig())
	if err != nil {
		b.Fatal(err)
	}
	buf := &rl.Buffer{}
	state := make([]float64, stateDim)
	for i := range state {
		state[i] = rng.Float64()
	}
	for i := 0; i < 32; i++ {
		act, lp, err := agent.Act(rng, state)
		if err != nil {
			b.Fatal(err)
		}
		buf.Add(rl.Transition{State: state, Action: act, Reward: rng.Float64(), NextState: state, Done: i == 31, LogProb: lp})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Update(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedAvgRound measures one real federated round: 3 clients × σ=5
// local epochs of MLP SGD plus aggregation and evaluation.
func BenchmarkFedAvgRound(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	full, err := dataset.Generate(rng, dataset.SynthMNIST(600))
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := full.Split(rng, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := dataset.IID{}.Partition(rng, train, 3)
	if err != nil {
		b.Fatal(err)
	}
	factory := func(r *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(r, full.Dim(), 32, 10)
	}
	srv, err := fl.NewServer(test, factory, rng)
	if err != nil {
		b.Fatal(err)
	}
	clients := make([]*fl.Client, 3)
	for i, idx := range parts {
		local, err := train.Subset(idx)
		if err != nil {
			b.Fatal(err)
		}
		clients[i], err = fl.NewClient(i, local, factory, fl.DefaultConfig(), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global := srv.Global()
		updates := make([]fl.Update, 0, len(clients))
		for _, c := range clients {
			params, _, err := c.TrainRound(global)
			if err != nil {
				b.Fatal(err)
			}
			updates = append(updates, fl.Update{Params: params, Samples: c.NumSamples()})
		}
		if err := srv.Aggregate(updates); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}
