package edgeenv

import (
	"math"
	"math/rand"
	"strings"
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
		func(c *Config) { c.Availability = 0.5; c.Rng = nil },
	}
	// Every float knob rejects NaN, and those that must be finite reject
	// +Inf; a plain range check passes NaN through.
	nan, inf := math.NaN(), math.Inf(1)
	for _, field := range []func(*Config) *float64{
		func(c *Config) *float64 { return &c.Budget },
		func(c *Config) *float64 { return &c.Lambda },
		func(c *Config) *float64 { return &c.TimeWeight },
		func(c *Config) *float64 { return &c.CommJitter },
		func(c *Config) *float64 { return &c.Availability },
		func(c *Config) *float64 { return &c.RoundDeadline },
		func(c *Config) *float64 { return &c.RetryBackoff },
		func(c *Config) *float64 { return &c.FailurePayment },
	} {
		for _, v := range []float64{nan, inf} {
			mutations = append(mutations, func(c *Config) {
				c.Rng = rand.New(rand.NewSource(1))
				*field(c) = v
			})
		}
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

// TestNewResolvesPipelineDefaults: New hands the round pipeline the
// resolved defaults — quorum 1 and the fleet's slowest possible round time
// as the empty-round timeout — passes an explicit quorum through, and
// builds the flat retry policy from MaxRetries and RetryBackoff.
func TestNewResolvesPipelineDefaults(t *testing.T) {
	fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(3)), device.DefaultFleetSpec(4))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(4)), accuracy.PresetMNIST, 4)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	cfg := DefaultConfig(fleet, acc, 100)
	cfg.CommJitter = 0.2
	cfg.Rng = rand.New(rand.NewSource(5))
	cfg.RetryBackoff = 1.5
	cfg.MaxRetries = 2
	env, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var slowest float64
	for i := 0; i < fleet.Len(); i++ {
		slowest = max(slowest, fleet.Workload(i)/fleet.FreqMin[i]+fleet.CommTime[i]*(1+cfg.CommJitter))
	}
	p := env.Pipeline()
	if p.Commit.MinQuorum != 1 {
		t.Fatalf("MinQuorum 0 resolved to %d, want 1", p.Commit.MinQuorum)
	}
	if p.Settle.EmptyTimeout != slowest || slowest <= 0 {
		t.Fatalf("empty-round timeout %v, want the slowest round time %v", p.Settle.EmptyTimeout, slowest)
	}
	if p.Execute.MaxRetries != 2 || p.Execute.RetryBackoff != 1.5 {
		t.Fatalf("retry policy (%d, %v), want (2, 1.5)", p.Execute.MaxRetries, p.Execute.RetryBackoff)
	}

	cfg.MinQuorum = 3
	if env, err = New(cfg); err != nil {
		t.Fatalf("New: %v", err)
	}
	if p := env.Pipeline(); p.Commit.MinQuorum != 3 {
		t.Fatalf("explicit quorum became %d, want 3", p.Commit.MinQuorum)
	}
}

// TestValidateSettingsNeedsNoFleet: the settings check runs on a config
// with no fleet, accuracy model or Rng, and judges the quorum against the
// fleet size it is given.
func TestValidateSettingsNeedsNoFleet(t *testing.T) {
	cfg := DefaultConfig(nil, nil, 100)
	cfg.Availability = 0.5
	cfg.MinQuorum = 3
	if err := cfg.ValidateSettings(3); err != nil {
		t.Fatalf("ValidateSettings(3): %v", err)
	}
	if err := cfg.ValidateSettings(2); err == nil {
		t.Fatal("ValidateSettings(2) accepted quorum 3")
	}
	cfg.Budget = math.NaN()
	if err := cfg.ValidateSettings(3); err == nil {
		t.Fatal("ValidateSettings accepted a NaN budget")
	}
}

func TestNormsArePositive(t *testing.T) {
	env := testEnv(t, 4, 100)
	if env.freqNorm <= 0 || env.priceNorm <= 0 || env.timeNorm <= 0 {
		t.Fatalf("norms = %v, %v, %v, want all > 0", env.freqNorm, env.priceNorm, env.timeNorm)
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

// TestStepRejectsNaNPrice: a NaN price fails the step in Respond with an
// error naming the node, before Settle and Commit run. The accuracy model,
// the ledger and the round index are untouched, and the next valid step
// plays round 1 exactly as a fresh environment does.
func TestStepRejectsNaNPrice(t *testing.T) {
	env := testEnv(t, 5, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	acc := env.Config().Accuracy.Accuracy()
	prices := fullPrices(env)
	prices[2] = math.NaN()
	_, err := env.Step(prices)
	if err == nil {
		t.Fatal("Step accepted a NaN price")
	}
	if msg := err.Error(); !strings.Contains(msg, "respond") || !strings.Contains(msg, "node 2") {
		t.Fatalf("error %q does not name the respond stage and node 2", msg)
	}
	if got := env.Config().Accuracy.Accuracy(); got != acc {
		t.Fatalf("accuracy moved %v -> %v on a rejected round", acc, got)
	}
	l := env.Ledger()
	if l.NumRounds() != 0 || l.Remaining() != 1000 || l.TotalSpent() != 0 || l.WastedTime() != 0 {
		t.Fatalf("rejected round touched the ledger: %d rounds, %v remaining, %v spent, %v wasted",
			l.NumRounds(), l.Remaining(), l.TotalSpent(), l.WastedTime())
	}
	if env.Round() != 1 || env.Done() {
		t.Fatalf("rejected round moved the episode: round %d, done %v", env.Round(), env.Done())
	}

	prices = fullPrices(env)
	got, err := env.Step(prices)
	if err != nil {
		t.Fatalf("Step after the rejected round: %v", err)
	}
	fresh := testEnv(t, 5, 1000)
	if err := fresh.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	want, err := fresh.Step(prices)
	if err != nil {
		t.Fatalf("fresh Step: %v", err)
	}
	if got.Round.Payment != want.Round.Payment || got.Round.Accuracy != want.Round.Accuracy ||
		got.ExteriorReward != want.ExteriorReward || env.Round() != fresh.Round() {
		t.Fatalf("round after the rejected one %+v differs from a fresh round 1 %+v", got.Round, want.Round)
	}
}

// TestStepInfinitePrices pins the behaviour of infinite prices: −Inf is a
// non-positive offer the node declines, and +Inf buys the node at an
// infinite contracted payment, so the round overruns any budget and ends
// the episode with nothing spent.
func TestStepInfinitePrices(t *testing.T) {
	env := testEnv(t, 5, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	prices[1] = math.Inf(-1)
	res, err := env.Step(prices)
	if err != nil {
		t.Fatalf("Step with a -Inf price: %v", err)
	}
	if res.Done || res.Round.Participants != 4 || res.Round.Freqs[1] != 0 {
		t.Fatalf("-Inf price: done %v, %d participants, node 1 freq %v; want the node to decline",
			res.Done, res.Round.Participants, res.Round.Freqs[1])
	}
	spent := env.Ledger().TotalSpent()

	prices = fullPrices(env)
	prices[3] = math.Inf(1)
	res, err = env.Step(prices)
	if err != nil {
		t.Fatalf("Step with a +Inf price: %v", err)
	}
	if !res.Done || !env.Done() || res.Truncated {
		t.Fatalf("+Inf price: done %v/%v truncated %v; want a budget overrun", res.Done, env.Done(), res.Truncated)
	}
	if env.Ledger().NumRounds() != 1 || env.Ledger().TotalSpent() != spent {
		t.Fatalf("+Inf round was paid for: %d rounds, %v spent (before %v)",
			env.Ledger().NumRounds(), env.Ledger().TotalSpent(), spent)
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
