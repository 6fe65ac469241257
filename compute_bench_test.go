package chiron_test

// Compute micro-benchmarks for the float64 numeric stack that every hot loop
// of the reproduction funnels through: the RealTraining MLP step, one full
// PPO update, a frozen-policy evaluation grid and one federated client
// round. All report allocs/op so that regressions in the destination-passing
// path (which should keep steady-state allocations near zero) are visible
// straight from `go test -bench=Compute -benchmem`. CI runs exactly these and
// gates them against BENCH_compute.json with cmd/benchgate.

import (
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/core"
	"chiron/internal/dataset"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/fl"
	"chiron/internal/mat"
	"chiron/internal/mechanism"
	"chiron/internal/nn"
	"chiron/internal/rl"
)

// BenchmarkComputeMLPForwardBackward measures one RealTraining-shaped MLP
// training step (forward, softmax cross-entropy, backward) on a batch of 10 —
// the exact inner loop of fl.Client.TrainRound.
func BenchmarkComputeMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	net, err := nn.NewClassifierMLP(rng, 64, 32, 10)
	if err != nil {
		b.Fatal(err)
	}
	x := mat.New(10, 64)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	grad := mat.New(10, 10)
	probs := make([]float64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits, err := net.Forward(x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nn.SoftmaxCrossEntropyTo(grad, logits, labels, probs); err != nil {
			b.Fatal(err)
		}
		net.ZeroGrad()
		if err := net.BackwardParamsOnly(grad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputePPOUpdate measures one full PPO update (M=10 epochs of
// critic regression + clipped-surrogate actor pass) over a 32-transition
// episode at Chiron's exterior dimensions.
func BenchmarkComputePPOUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Update(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFrozenGrid builds a frozen-checkpoint evaluation grid: `cells`
// Chiron agents sharing one donor's policy weights, each bound to its own
// environment — the setup of the robustness and fault-sweep ablations.
func benchFrozenGrid(b *testing.B, cells int) []*core.Chiron {
	b.Helper()
	const nodes = 5
	newEnv := func(seed int64) *edgeenv.Env {
		fleet, err := device.NewFleet(rand.New(rand.NewSource(seed)), device.DefaultFleetSpec(nodes))
		if err != nil {
			b.Fatal(err)
		}
		acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(seed+1)), accuracy.PresetMNIST, nodes)
		if err != nil {
			b.Fatal(err)
		}
		cfg := edgeenv.DefaultConfig(fleet, acc, 150)
		cfg.MaxRounds = 30
		env, err := edgeenv.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return env
	}
	donor, err := core.New(newEnv(17), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ck := donor.Checkpoint()
	agents := make([]*core.Chiron, cells)
	for i := range agents {
		agent, err := core.New(newEnv(17+int64(i)*10), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := agent.Restore(ck); err != nil {
			b.Fatal(err)
		}
		agents[i] = agent
	}
	return agents
}

// BenchmarkComputePolicyEvalSequential measures a 16-cell frozen-policy
// evaluation grid cell by cell: one deterministic episode per cell, each
// round running two 1×d policy forwards — the shape of the abl-robust and
// abl-faults jobs.
func BenchmarkComputePolicyEvalSequential(b *testing.B) {
	agents := benchFrozenGrid(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, agent := range agents {
			if _, err := mechanism.Evaluate(agent, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkComputeClientTrainRound measures one client's σ=5 local epochs of
// mini-batch SGD over a 400-sample shard — the RealTraining unit of work the
// incentive mechanism prices per round per node.
func BenchmarkComputeClientTrainRound(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	full, err := dataset.Generate(rng, dataset.SynthMNIST(500))
	if err != nil {
		b.Fatal(err)
	}
	factory := func(r *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(r, full.Dim(), 32, 10)
	}
	client, err := fl.NewClient(0, full, factory, fl.DefaultConfig(), rand.New(rand.NewSource(15)))
	if err != nil {
		b.Fatal(err)
	}
	ref, err := factory(rand.New(rand.NewSource(16)))
	if err != nil {
		b.Fatal(err)
	}
	global := ref.FlattenParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.TrainRound(global); err != nil {
			b.Fatal(err)
		}
	}
}
