package edgeenv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chiron/internal/accuracy"
	"chiron/internal/device"
)

func testEnv(t *testing.T, nodes int, budget float64) *Env {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(8)), accuracy.PresetMNIST, nodes)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	env, err := New(DefaultConfig(fleet, acc, budget))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return env
}

// fullPrices returns a price vector driving every node near its max.
func fullPrices(env *Env) []float64 {
	prices := make([]float64, env.NumNodes())
	for i, n := range env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax)
	}
	return prices
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(2))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rng, accuracy.PresetMNIST, 2)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	good := DefaultConfig(fleet, acc, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Fleet = nil },
		func(c *Config) { c.Fleet = device.FromNodes(nil) },
		func(c *Config) { c.Accuracy = nil },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.TimeWeight = -1 },
		func(c *Config) { c.HistoryLen = 0 },
		func(c *Config) { c.MaxRounds = 0 },
	}
	for i, mutate := range mutations {
		bad := DefaultConfig(fleet, acc, 100)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
		if _, err := New(bad); err == nil {
			t.Fatalf("mutation %d accepted by New", i)
		}
	}
}

func TestNormsArePositive(t *testing.T) {
	env := testEnv(t, 4, 100)
	fn, pn, tn := env.Norms()
	if fn <= 0 || pn <= 0 || tn <= 0 {
		t.Fatalf("Norms = %v, %v, %v, want all > 0", fn, pn, tn)
	}
}

func TestStepRequiresReset(t *testing.T) {
	env := testEnv(t, 2, 100)
	if _, err := env.Step([]float64{1e-9, 1e-9}); err == nil {
		t.Fatal("Step before Reset succeeded")
	}
}

func TestStepRejectsWrongPriceCount(t *testing.T) {
	env := testEnv(t, 3, 100)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step([]float64{1e-9}); err == nil {
		t.Fatal("Step accepted wrong price vector length")
	}
}

func TestStepAccountingAndRewards(t *testing.T) {
	env := testEnv(t, 3, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	res, err := env.Step(prices)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Done {
		t.Fatal("episode ended on the first affordable round")
	}
	if res.Round.Participants != 3 {
		t.Fatalf("participants %d, want 3", res.Round.Participants)
	}
	// Payment must match Σ p·ζ.
	var want float64
	for i := range prices {
		want += prices[i] * res.Round.Freqs[i]
	}
	if math.Abs(res.Round.Payment-want) > 1e-9 {
		t.Fatalf("payment %v, want %v", res.Round.Payment, want)
	}
	if math.Abs(env.Ledger().Remaining()-(1000-want)) > 1e-9 {
		t.Fatalf("remaining %v", env.Ledger().Remaining())
	}
	// Exterior reward = λΔA − w·T.
	cfg := env.Config()
	if res.ExteriorReward > cfg.Lambda || res.ExteriorReward < -cfg.TimeWeight*res.Round.RoundTime()-1 {
		t.Fatalf("exterior reward %v out of plausible range", res.ExteriorReward)
	}
	if res.InnerReward > 0 {
		t.Fatalf("inner reward %v, want <= 0", res.InnerReward)
	}
	if math.Abs(res.InnerReward+res.Round.IdleTime()) > 1e-9 {
		t.Fatalf("inner reward %v != -idle %v", res.InnerReward, -res.Round.IdleTime())
	}
}

func TestBudgetExhaustionDiscardsRound(t *testing.T) {
	env := testEnv(t, 3, 5) // tiny budget: first full-price round overruns
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !res.Done {
		t.Fatal("overrunning round did not end the episode")
	}
	if env.Ledger().NumRounds() != 0 {
		t.Fatal("overrunning round was recorded")
	}
	if env.Ledger().Remaining() != 5 {
		t.Fatalf("budget charged for a discarded round: %v", env.Ledger().Remaining())
	}
	if !env.Done() {
		t.Fatal("env not marked done")
	}
	if _, err := env.Step(fullPrices(env)); err == nil {
		t.Fatal("Step on finished episode succeeded")
	}
}

func TestEpisodeTerminatesAtMaxRounds(t *testing.T) {
	env := testEnv(t, 2, 1e9) // effectively unlimited budget
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	steps := 0
	for !env.Done() {
		res, err := env.Step(prices)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		steps++
		if res.Done {
			if !res.Truncated {
				t.Fatal("round-cap termination not flagged Truncated")
			}
			break
		}
		if steps > env.Config().MaxRounds+1 {
			t.Fatal("episode exceeded MaxRounds")
		}
	}
	if steps != env.Config().MaxRounds {
		t.Fatalf("episode length %d, want MaxRounds %d", steps, env.Config().MaxRounds)
	}
}

func TestResetStartsFresh(t *testing.T) {
	env := testEnv(t, 2, 100)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if env.Ledger().NumRounds() != 0 || env.Round() != 1 {
		t.Fatal("Reset did not clear episode state")
	}
	if env.Ledger().Remaining() != env.Ledger().Budget() {
		t.Fatal("Reset did not restore the budget")
	}
}

func TestRandomPricesFeasible(t *testing.T) {
	env := testEnv(t, 5, 100)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		prices := env.RandomPrices(rng)
		if len(prices) != 5 {
			t.Fatalf("price count %d", len(prices))
		}
		var sum float64
		for _, p := range prices {
			if p < 0 {
				t.Fatalf("negative price %v", p)
			}
			sum += p
		}
		if sum > env.MaxTotalPrice()*1.0001 {
			t.Fatalf("total %v exceeds MaxTotalPrice %v", sum, env.MaxTotalPrice())
		}
	}
}

// Property: an episode driven by arbitrary nonnegative prices never drives
// the ledger negative and always terminates.
func TestEpisodeSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(3))
		if err != nil {
			return false
		}
		acc, err := accuracy.NewPresetCurve(rng, accuracy.PresetMNIST, 3)
		if err != nil {
			return false
		}
		cfg := DefaultConfig(fleet, acc, 20+rng.Float64()*100)
		cfg.MaxRounds = 50
		env, err := New(cfg)
		if err != nil {
			return false
		}
		if err := env.Reset(); err != nil {
			return false
		}
		steps := 0
		for !env.Done() {
			if _, err := env.Step(env.RandomPrices(rng)); err != nil {
				return false
			}
			steps++
			if steps > cfg.MaxRounds+1 {
				return false
			}
		}
		return env.Ledger().Remaining() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
