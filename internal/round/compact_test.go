// Compact-mode (fleet-scale) pipeline tests: aggregate equivalence with
// the vector-record path, worker-count invariance, the fleet-ladder
// digests, and the steady-state allocation contract.
package round_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/mat"
)

// flatModel is a stubModel that records nothing, so environment-level
// allocation measurements see only the pipeline's own behavior.
type flatModel struct{ acc, step float64 }

func (m *flatModel) Reset() (float64, error) { return m.acc, nil }

func (m *flatModel) Advance(participants []int) (float64, error) {
	m.acc += m.step
	return m.acc, nil
}

func (m *flatModel) Accuracy() float64 { return m.acc }

// stressedConfigs builds a vector-record and a compact twin of the same
// stressed environment over n nodes with the given budget: churn,
// availability, jitter, faults, deadline, retries, failure payment, and a
// quorum all enabled.
func stressedConfigs(t *testing.T, n int, seed int64, budget float64) (vec, compact edgeenv.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(n))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	churn, err := faults.NewChurnSampler(faults.ChurnRates{Depart: 0.1, Arrive: 0.7}, seed+1)
	if err != nil {
		t.Fatalf("NewChurnSampler: %v", err)
	}
	sampler, err := faults.NewSampler(faults.Rates{Crash: 0.05, Straggle: 0.1, Drop: 0.08, Corrupt: 0.03}, seed+2)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	base := func() edgeenv.Config {
		cfg := edgeenv.DefaultConfig(fleet, &stubModel{acc: 0.1, step: 0.02}, budget)
		cfg.MaxRounds = 12
		cfg.CommJitter = 0.2
		cfg.Availability = 0.9
		cfg.Churn = churn
		cfg.Faults = sampler
		cfg.RoundDeadline = 60
		cfg.MaxRetries = 2
		cfg.RetryBackoff = 0.5
		cfg.FailurePayment = 0.3
		cfg.MinQuorum = 2
		return cfg
	}
	vec = base()
	vec.Rng = rand.New(rand.NewSource(seed + 3))
	compact = base()
	compact.Rng = rand.New(rand.NewSource(seed + 3))
	compact.CompactRounds = true
	// Each config needs its own accuracy model instance (stateful).
	vec.Accuracy = &stubModel{acc: 0.1, step: 0.02}
	compact.Accuracy = &stubModel{acc: 0.1, step: 0.02}
	return vec, compact
}

// TestCompactMatchesVectorPipeline pins the streaming-reduction contract:
// a compact episode reproduces the vector-record episode's aggregates —
// payments and round times exactly, the reassociated idle-time sum to
// within float tolerance — under the full failure model.
func TestCompactMatchesVectorPipeline(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		vecCfg, compactCfg := stressedConfigs(t, 24, 100+seed*17, 500)
		vecEnv, err := edgeenv.New(vecCfg)
		if err != nil {
			t.Fatalf("vector env: %v", err)
		}
		compactEnv, err := edgeenv.New(compactCfg)
		if err != nil {
			t.Fatalf("compact env: %v", err)
		}
		if err := vecEnv.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := compactEnv.Reset(); err != nil {
			t.Fatal(err)
		}
		priceRng := rand.New(rand.NewSource(200 + seed))
		for k := 0; !vecEnv.Done(); k++ {
			prices := vecEnv.RandomPrices(priceRng)
			rv, err := vecEnv.Step(prices)
			if err != nil {
				t.Fatalf("seed %d round %d vector step: %v", seed, k, err)
			}
			rc, err := compactEnv.Step(prices)
			if err != nil {
				t.Fatalf("seed %d round %d compact step: %v", seed, k, err)
			}
			ctx := fmt.Sprintf("seed %d round %d", seed, k)
			if rv.Done != rc.Done || rv.Truncated != rc.Truncated {
				t.Fatalf("%s: termination (%v,%v) != (%v,%v)", ctx, rc.Done, rc.Truncated, rv.Done, rv.Truncated)
			}
			if !rc.Round.Compact() && rc.Round.NumNodes != 0 {
				t.Fatalf("%s: compact env emitted non-compact record", ctx)
			}
			if rv.Round.Payment != rc.Round.Payment {
				t.Fatalf("%s: payment %v != %v", ctx, rc.Round.Payment, rv.Round.Payment)
			}
			if rv.Round.Accuracy != rc.Round.Accuracy {
				t.Fatalf("%s: accuracy %v != %v", ctx, rc.Round.Accuracy, rv.Round.Accuracy)
			}
			if rv.Round.Participants != rc.Round.Participants || rv.Round.Completed != rc.Round.Completed {
				t.Fatalf("%s: participants %d/%d != %d/%d", ctx,
					rc.Round.Participants, rc.Round.Completed, rv.Round.Participants, rv.Round.Completed)
			}
			if rv.Round.RoundTime() != rc.Round.RoundTime() {
				t.Fatalf("%s: round time %v != %v", ctx, rc.Round.RoundTime(), rv.Round.RoundTime())
			}
			if rv.Round.TimeEfficiency() != rc.Round.TimeEfficiency() {
				t.Fatalf("%s: efficiency %v != %v", ctx, rc.Round.TimeEfficiency(), rv.Round.TimeEfficiency())
			}
			if rv.ExteriorReward != rc.ExteriorReward {
				t.Fatalf("%s: exterior reward %v != %v", ctx, rc.ExteriorReward, rv.ExteriorReward)
			}
			// IdleTime is Σ(T−T_i) in vector form and N·T − ΣT_i in
			// streamed form — same value, different association.
			scale := math.Max(1, math.Abs(rv.InnerReward))
			if math.Abs(rv.InnerReward-rc.InnerReward) > 1e-9*scale {
				t.Fatalf("%s: inner reward %v != %v", ctx, rc.InnerReward, rv.InnerReward)
			}
		}
		if !compactEnv.Done() {
			t.Fatalf("seed %d: compact episode still running after vector episode ended", seed)
		}
		lv, lc := vecEnv.Ledger(), compactEnv.Ledger()
		if lv.TotalSpent() != lc.TotalSpent() || lv.NumRounds() != lc.NumRounds() {
			t.Fatalf("seed %d: ledgers diverged: spent %v/%v rounds %d/%d",
				seed, lc.TotalSpent(), lv.TotalSpent(), lc.NumRounds(), lv.NumRounds())
		}
		if lv.TotalTime() != lc.TotalTime() {
			t.Fatalf("seed %d: total time %v != %v", seed, lc.TotalTime(), lv.TotalTime())
		}
	}
}

// episodeDigest runs one full compact episode and returns every committed
// aggregate, the raw material for the worker-invariance comparison.
func episodeDigest(t *testing.T, workers int) []float64 {
	t.Helper()
	mat.SetWorkers(workers)
	defer mat.SetWorkers(0)
	// 5,000 nodes put both Respond and Execute above mat.ParallelRange's
	// fan-out threshold, so every failure path runs sharded; the budget
	// scales with the fleet so the episode lasts several rounds.
	_, cfg := stressedConfigs(t, 5000, 4242, 40_000)
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	priceRng := rand.New(rand.NewSource(99))
	var digest []float64
	for !env.Done() {
		res, err := env.Step(env.RandomPrices(priceRng))
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		digest = append(digest, res.Round.Payment, res.Round.MaxTime, res.Round.SumTime,
			float64(res.Round.Participants), float64(res.Round.Completed),
			res.ExteriorReward, res.InnerReward)
	}
	return digest
}

// TestCompactWorkerInvariance pins bit-determinism of the sharded batch
// stages: the full aggregate stream of an episode is identical at any
// worker count.
func TestCompactWorkerInvariance(t *testing.T) {
	ref := episodeDigest(t, 1)
	for _, workers := range []int{2, 4, 8} {
		got := episodeDigest(t, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: digest length %d != %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: digest[%d] = %b != %b", workers, i, got[i], ref[i])
			}
		}
	}
}

// fleetLadderDigest drives full compact rounds over a seed-7 fleet of n
// nodes at 80% of every node's saturation price — the all-join worst case
// for per-round work — and returns the FNV-64a digest of each committed
// round's Payment, MaxTime, SumTime, Participants and Completed. The budget
// is the saturation outlay Σ p_i(ζ_i^max)·ζ_i^max times the round count,
// so no round runs short of money.
func fleetLadderDigest(t *testing.T, n, rounds, workers int) string {
	t.Helper()
	mat.SetWorkers(workers)
	defer mat.SetWorkers(0)
	fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(7)), device.DefaultFleetSpec(n))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	var maxOutlay float64
	for i := 0; i < fleet.Len(); i++ {
		maxOutlay += fleet.PriceForFreq(i, fleet.FreqMax[i]) * fleet.FreqMax[i]
	}
	cfg := edgeenv.DefaultFleetConfig(fleet, &flatModel{step: 1e-6}, maxOutlay*float64(rounds+2)+1)
	cfg.MaxRounds = rounds + 2
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = fleet.PriceForFreq(i, fleet.FreqMax[i]) * 0.8
	}
	// The warm-up round is outside the digest.
	if _, err := env.Step(prices); err != nil {
		t.Fatalf("warm-up step: %v", err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for k := 0; k < rounds; k++ {
		res, err := env.Step(prices)
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		if res.Done {
			t.Fatalf("episode ended early at round %d", k)
		}
		for _, v := range []float64{
			res.Round.Payment, res.Round.MaxTime, res.Round.SumTime,
			float64(res.Round.Participants), float64(res.Round.Completed),
		} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFleetLadderDigests pins the sharded Respond and Execute stages at
// fleet scale: 1k, 10k and 100k nodes reproduce committed round digests at
// one worker and at four. 1k runs both stages inline (below
// mat.ParallelRange's fan-out threshold); 10k and 100k shard both. 100k
// runs only without -short.
func TestFleetLadderDigests(t *testing.T) {
	for _, c := range []struct {
		nodes, rounds int
		digest        string
		long          bool
	}{
		{1_000, 512, "9133fc2b13a5c725", false},
		{10_000, 128, "7c40a1b13d7abe25", false},
		{100_000, 32, "38d7126536796025", true},
	} {
		if c.long && testing.Short() {
			continue
		}
		for _, workers := range []int{1, 4} {
			if got := fleetLadderDigest(t, c.nodes, c.rounds, workers); got != c.digest {
				t.Errorf("N=%d workers=%d: digest %s, want %s", c.nodes, workers, got, c.digest)
			}
		}
	}
}

// TestCompactSteadyStateAllocs pins the fleet-scale memory contract: after
// warm-up, a full compact round through the reused State performs only a
// small constant number of allocations — and the count does not grow with
// the fleet. (The constant covers the worker-pool closure headers and the
// ledger's amortized round append; nothing is O(N).)
func TestCompactSteadyStateAllocs(t *testing.T) {
	measure := func(n int) float64 {
		fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(7)), device.DefaultFleetSpec(n))
		if err != nil {
			t.Fatalf("NewFleetBatch: %v", err)
		}
		cfg := edgeenv.DefaultFleetConfig(fleet, &flatModel{acc: 0.1, step: 0.001}, 1e12)
		env, err := edgeenv.New(cfg)
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		if err := env.Reset(); err != nil {
			t.Fatal(err)
		}
		prices := make([]float64, n)
		for i := range prices {
			prices[i] = fleet.PriceForFreq(i, fleet.FreqMax[i]) * 0.8
		}
		// Warm-up sizes the State scratch and the ledger's round slice.
		for k := 0; k < 3; k++ {
			if _, err := env.Step(prices); err != nil {
				t.Fatalf("warm-up step: %v", err)
			}
		}
		return testing.AllocsPerRun(32, func() {
			if _, err := env.Step(prices); err != nil {
				t.Fatalf("step: %v", err)
			}
		})
	}
	small := measure(64)
	large := measure(2048)
	if small > 8 {
		t.Errorf("steady-state allocs at N=64: %v, want <= 8", small)
	}
	if large > small+2 {
		t.Errorf("allocs grew with fleet size: N=64 → %v, N=2048 → %v", small, large)
	}
}
