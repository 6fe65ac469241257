package chiron_test

// Bit-exact determinism tests for the parallel compute core: the same seed
// must produce byte-identical training results no matter how many kernel
// workers are configured or what GOMAXPROCS happens to be. The GEMM kernels
// guarantee this by fixing the floating-point reduction order (each output
// row accumulates k-ascending regardless of worker banding), and these tests
// pin that contract at the federated-training, PPO, and full-system levels.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"chiron"
	"chiron/internal/accuracy"
	"chiron/internal/dataset"
	"chiron/internal/experiment"
	"chiron/internal/fl"
	"chiron/internal/mat"
	"chiron/internal/mechanism"
	"chiron/internal/nn"
	"chiron/internal/rl"
)

// hashFloats folds the exact bit patterns of v into h, so two runs collide
// only when every float is byte-identical.
func hashFloats(h interface{ Write([]byte) (int, error) }, v []float64) {
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// flFingerprint runs three FedAvg rounds over three IID clients with the
// given worker count and returns a hash of the final global model and its
// test accuracy.
func flFingerprint(t *testing.T, workers int) uint64 {
	t.Helper()
	mat.SetWorkers(workers)
	defer mat.SetWorkers(0)

	rng := rand.New(rand.NewSource(99))
	full, err := dataset.Generate(rng, dataset.SynthMNIST(240))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := full.Split(rng, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.IID{}.Partition(rng, train, 3)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(r *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(r, full.Dim(), 16, full.Classes)
	}
	server, err := fl.NewServer(test, factory, rng)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, len(parts))
	for i, idx := range parts {
		local, err := train.Subset(idx)
		if err != nil {
			t.Fatal(err)
		}
		if clients[i], err = fl.NewClient(i, local, factory, fl.DefaultConfig(), rand.New(rand.NewSource(100+int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		global := server.Global()
		updates := make([]fl.Update, 0, len(clients))
		for i, c := range clients {
			params, _, err := c.TrainRound(global)
			if err != nil {
				t.Fatal(err)
			}
			updates = append(updates, fl.Update{Client: i, Params: params, Samples: c.NumSamples()})
		}
		if err := server.Aggregate(updates); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := server.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashFloats(h, server.Global())
	hashFloats(h, []float64{acc})
	return h.Sum64()
}

// ppoFingerprint runs two PPO updates over a fixed 32-transition episode and
// hashes everything the update writes: the policy and critic parameters,
// both Adam optimizers' step counts and moment estimates, each update's
// UpdateStats, and a value estimate. Above one worker the critic and actor
// epochs run as concurrent streams, so equal fingerprints pin that fork as
// bit-identical to the serial path.
//
// The chain episode repeats one state, so every next state equals the next
// row's state and the critic values it from the states forward pass. The
// mixed episode draws a fresh state per row, breaks the chain on every third
// row and flags interior terminals, so the critic must also value next
// states that appear nowhere in the batch.
func ppoFingerprint(t *testing.T, workers int, mixed bool) uint64 {
	t.Helper()
	mat.SetWorkers(workers)
	defer mat.SetWorkers(0)

	const steps = 32
	rng := rand.New(rand.NewSource(7))
	stateDim := 3*5*4 + 2
	agent, err := rl.NewPPO(rng, stateDim, 1, rl.DefaultPPOConfig())
	if err != nil {
		t.Fatal(err)
	}
	randState := func() []float64 {
		s := make([]float64, stateDim)
		for i := range s {
			s[i] = rng.Float64()
		}
		return s
	}
	states := make([][]float64, steps+1)
	states[0] = randState()
	for i := 1; i <= steps; i++ {
		states[i] = states[0]
		if mixed {
			states[i] = randState()
		}
	}
	buf := &rl.Buffer{}
	for i := 0; i < steps; i++ {
		act, lp, err := agent.Act(rng, states[i])
		if err != nil {
			t.Fatal(err)
		}
		next, done := states[i+1], i == steps-1
		if mixed {
			if i%3 == 1 {
				next = randState()
			}
			done = done || i%7 == 6
		}
		buf.Add(rl.Transition{State: states[i], Action: act, Reward: rng.Float64(), NextState: next, Done: done, LogProb: lp})
	}
	h := fnv.New64a()
	for i := 0; i < 2; i++ {
		stats, err := agent.Update(buf)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, []float64{stats.ActorLoss, stats.CriticLoss, stats.Entropy, stats.MeanRatio,
			stats.ClipFrac, float64(stats.NumSamples), stats.ActorLR, stats.CriticLR})
	}
	snap := agent.Snapshot()
	for _, tensors := range [][][]float64{snap.Actor, snap.Critic} {
		for _, p := range tensors {
			hashFloats(h, p)
		}
	}
	for _, opt := range []*rl.OptState{snap.ActorOpt, snap.CriticOpt} {
		hashFloats(h, []float64{float64(opt.T)})
		for _, moments := range [][][]float64{opt.M, opt.V} {
			for _, m := range moments {
				hashFloats(h, m)
			}
		}
	}
	v, err := criticValue(agent.Config().Hidden, snap.Critic, states[steps])
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, []float64{v})
	return h.Sum64()
}

// criticValue estimates V(state) with a fresh tanh critic of the agent's
// shape (state → hidden… → 1) loaded with the snapshot's critic tensors, so
// it runs the same forward pass as the agent's own critic.
func criticValue(hidden []int, tensors [][]float64, state []float64) (float64, error) {
	widths := append(append([]int{len(state)}, hidden...), 1)
	critic, err := nn.NewMLP(rand.New(rand.NewSource(0)), nn.ActTanh, widths...)
	if err != nil {
		return 0, err
	}
	var flat []float64
	for _, p := range tensors {
		flat = append(flat, p...)
	}
	if err := critic.LoadParams(flat); err != nil {
		return 0, err
	}
	x, err := mat.NewFromData(1, len(state), state)
	if err != nil {
		return 0, err
	}
	out, err := critic.Forward(x)
	if err != nil {
		return 0, err
	}
	return out.At(0, 0), nil
}

// systemFingerprint trains a small full system (surrogate accuracy) for two
// episodes and renders the per-episode results.
func systemFingerprint(t *testing.T, workers int) string {
	t.Helper()
	sys, err := chiron.NewSystem(chiron.SystemConfig{
		Nodes:   3,
		Budget:  300,
		Seed:    5,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mat.SetWorkers(0)
	results, err := sys.Train(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", results)
}

func TestFLDeterministicAcrossWorkers(t *testing.T) {
	base := flFingerprint(t, 1)
	if got := flFingerprint(t, 4); got != base {
		t.Fatalf("fl fingerprint differs: workers=1 %x, workers=4 %x", base, got)
	}
	// workers=0 delegates to GOMAXPROCS; vary it to cover that path too.
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := flFingerprint(t, 0); got != base {
		t.Fatalf("fl fingerprint differs: workers=1 %x, GOMAXPROCS=3 %x", base, got)
	}
}

// ppoFingerprints are ppoFingerprint's values under the scalar Go GEMM
// kernels and a critic that ran a separate V(s′) forward pass per epoch.
// Kernel and critic changes must reproduce them bit for bit.
var ppoFingerprints = map[bool]uint64{false: 0x5b8d110801afe3f7, true: 0xf87b1edc46d96b25}

func TestPPODeterministicAcrossWorkers(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		want := ppoFingerprints[mixed]
		for _, workers := range []int{1, 2, 4} {
			if got := ppoFingerprint(t, workers, mixed); got != want {
				t.Fatalf("mixed=%v workers=%d: ppo fingerprint %#x, want %#x", mixed, workers, got, want)
			}
		}
		prev := runtime.GOMAXPROCS(2)
		got := ppoFingerprint(t, 0, mixed)
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Fatalf("mixed=%v GOMAXPROCS=2: ppo fingerprint %#x, want %#x", mixed, got, want)
		}
	}
}

func TestSystemTrainDeterministicAcrossWorkers(t *testing.T) {
	base := systemFingerprint(t, 1)
	if got := systemFingerprint(t, 4); got != base {
		t.Fatalf("system training diverged between workers=1 and workers=4:\n%s\nvs\n%s", base, got)
	}
}

// learner is a training mechanism whose full state is a unified checkpoint.
type learner interface {
	Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error)
	Checkpoint() (*rl.Checkpoint, error)
}

// trainTwin trains kind on the Fig. 3 setup (MNIST surrogate, N=5, η=300)
// for a few episodes at the given worker count and returns the
// rendered episode results and the checkpoint bytes.
func trainTwin(t *testing.T, kind experiment.MechanismKind, workers int) (results string, checkpoint []byte) {
	t.Helper()
	mat.SetWorkers(workers)
	defer mat.SetWorkers(0)

	p, err := experiment.ConvergenceDefaults(experiment.Fig3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := experiment.BuildEnv(experiment.Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: p.Budget, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.BuildMechanism(kind, env, 7)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := m.(learner)
	if !ok {
		t.Fatalf("%s is not a checkpointing learner", m.Name())
	}
	res, err := l.Train(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range state.Agents {
		if a.Snapshot.ActorOpt.T == 0 || a.Snapshot.CriticOpt.T == 0 {
			t.Fatalf("%s agent %q never updated in %d episodes", m.Name(), a.Name, len(res))
		}
	}
	ck, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", res), ck
}

// TestTrainingBitIdenticalAcrossUpdateStreams pins the concurrent PPO
// update end to end. Serial kernels (workers=1) run every update stream
// one after another; the default and workers=4 fork the critic and actor
// epochs and, for Chiron, the inner and exterior agents. Every episode
// result and every checkpoint byte must agree.
func TestTrainingBitIdenticalAcrossUpdateStreams(t *testing.T) {
	for _, kind := range []experiment.MechanismKind{experiment.KindChiron, experiment.KindDRLBased} {
		t.Run(kind.String(), func(t *testing.T) {
			wantRes, wantCk := trainTwin(t, kind, 1)
			for _, workers := range []int{0, 4} {
				res, ck := trainTwin(t, kind, workers)
				if res != wantRes {
					t.Fatalf("workers=%d episode results diverged from workers=1:\n%s\nvs\n%s", workers, res, wantRes)
				}
				if !bytes.Equal(ck, wantCk) {
					t.Fatalf("workers=%d checkpoint bytes diverged from workers=1", workers)
				}
			}
		})
	}
}

// comparisonCSV runs a small fig4-shaped sweep with the given job-scheduler
// worker bound and returns the rendered CSV bytes.
func comparisonCSV(t *testing.T, jobs int) string {
	t.Helper()
	cmp, err := experiment.RunComparison(experiment.ComparisonParams{
		Preset: accuracy.PresetMNIST, Nodes: 3,
		Budgets:       []float64{60, 120},
		Mechanisms:    []experiment.MechanismKind{experiment.KindChiron, experiment.KindGreedy},
		TrainEpisodes: 1, EvalEpisodes: 1, Seed: 11,
		Jobs: jobs,
	})
	if err != nil {
		t.Fatalf("RunComparison(jobs=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	if err := experiment.WriteComparisonCSV(&buf, cmp); err != nil {
		t.Fatalf("WriteComparisonCSV: %v", err)
	}
	return buf.String()
}

// TestComparisonDeterministicAcrossJobs pins the experiment scheduler's
// contract: a sweep run serially and at -jobs=8 must produce byte-identical
// CSV output, because jobs are fully independent (each owns every RNG it
// touches) and results land in index-addressed slots.
func TestComparisonDeterministicAcrossJobs(t *testing.T) {
	base := comparisonCSV(t, 1)
	if got := comparisonCSV(t, 8); got != base {
		t.Fatalf("comparison CSV diverged between jobs=1 and jobs=8:\n%s\nvs\n%s", base, got)
	}
	// jobs=0 delegates to GOMAXPROCS; vary it to cover that path too.
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := comparisonCSV(t, 0); got != base {
		t.Fatalf("comparison CSV diverged between jobs=1 and GOMAXPROCS=3:\n%s\nvs\n%s", base, got)
	}
}
