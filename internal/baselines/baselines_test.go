package baselines

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/policy"
)

func testEnv(t *testing.T, nodes int, budget float64) *edgeenv.Env {
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
	env, err := edgeenv.New(edgeenv.DefaultConfig(fleet, acc, budget))
	if err != nil {
		t.Fatalf("edgeenv.New: %v", err)
	}
	return env
}

func TestDRLBasedConfigValidation(t *testing.T) {
	env := testEnv(t, 2, 100)
	bad := DefaultDRLBasedConfig()
	bad.EnergyWeight = -1
	if _, err := NewDRLBased(env, bad); err == nil {
		t.Fatal("accepted negative energy weight")
	}
	bad = DefaultDRLBasedConfig()
	bad.RewardScale = 0
	if _, err := NewDRLBased(env, bad); err == nil {
		t.Fatal("accepted zero reward scale")
	}
	bad = DefaultDRLBasedConfig()
	bad.Mode = 0
	if _, err := NewDRLBased(env, bad); err == nil {
		t.Fatal("accepted invalid reward mode")
	}
}

func TestDRLBasedIsMyopic(t *testing.T) {
	cfg := DefaultDRLBasedConfig()
	// The defining properties of the baseline: zero discount (single-round
	// optimization) and no budget entry in the state.
	if cfg.PPO.Gamma != 0 {
		t.Fatalf("gamma %v, want 0 (single-round optimization)", cfg.PPO.Gamma)
	}
	env := testEnv(t, 3, 100)
	myopic, err := policy.NewMyopicEncoder(env)
	if err != nil {
		t.Fatalf("NewMyopicEncoder: %v", err)
	}
	exterior, err := policy.NewExteriorEncoder(env)
	if err != nil {
		t.Fatalf("NewExteriorEncoder: %v", err)
	}
	if got, want := myopic.Dim(), exterior.Dim()-2; got != want {
		t.Fatalf("myopic state dim %d, want %d (no budget, no round index)", got, want)
	}
}

func TestDRLBasedEpisodeRuns(t *testing.T) {
	env := testEnv(t, 3, 100)
	d, err := NewDRLBased(env, DefaultDRLBasedConfig())
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	if d.Name() != "DRL-based" || d.Env() != env {
		t.Fatal("identity accessors wrong")
	}
	res, err := d.RunEpisode(true)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.Rounds <= 0 || res.BudgetSpent > 100+1e-9 {
		t.Fatalf("episode result %+v", res)
	}
	// Eval must be deterministic.
	a, err := d.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	b, err := d.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if a.Rounds != b.Rounds || math.Abs(a.BudgetSpent-b.BudgetSpent) > 1e-9 {
		t.Fatal("deterministic episodes differ")
	}
}

func TestDRLBasedEnergyModeReward(t *testing.T) {
	env := testEnv(t, 3, 100)
	cfg := DefaultDRLBasedConfig()
	cfg.Mode = RewardTimeEnergy
	d, err := NewDRLBased(env, cfg)
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := make([]float64, 3)
	for i, n := range env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax)
	}
	res, err := env.Step(prices)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	r := d.myopicReward(res)
	if r >= 0 {
		t.Fatalf("time+energy reward %v, want negative", r)
	}
	// It must differ from the server-round reward mode.
	d.cfg.Mode = RewardServerRound
	if d.myopicReward(res) == r {
		t.Fatal("reward modes indistinguishable")
	}
}

func TestDRLBasedTrain(t *testing.T) {
	env := testEnv(t, 2, 60)
	d, err := NewDRLBased(env, DefaultDRLBasedConfig())
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	results, err := d.Train(4, nil)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	if _, err := d.Train(0, nil); err == nil {
		t.Fatal("Train accepted zero episodes")
	}
}

func TestGreedyConfigValidation(t *testing.T) {
	if err := DefaultGreedyConfig().Validate(); err != nil {
		t.Fatalf("default rejected: %v", err)
	}
	if err := (GreedyConfig{WarmupActions: 0, Epsilon: 0.1}).Validate(); err == nil {
		t.Fatal("accepted zero warmup")
	}
	if err := (GreedyConfig{WarmupActions: 4, Epsilon: 1.5}).Validate(); err == nil {
		t.Fatal("accepted epsilon > 1")
	}
}

func TestGreedyWarmupAndExploration(t *testing.T) {
	env := testEnv(t, 3, 100)
	cfg := GreedyConfig{WarmupActions: 8, Epsilon: 1.0, Seed: 3} // always explore
	g, err := NewGreedy(env, cfg)
	if err != nil {
		t.Fatalf("NewGreedy: %v", err)
	}
	if g.head.Len() != 8 {
		t.Fatalf("warmup buffer %d, want 8", g.head.Len())
	}
	res, err := g.RunEpisode(true)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	// With ε=1 every played round appends a new action.
	if g.head.Len() < 8+res.Rounds {
		t.Fatalf("buffer %d after %d exploring rounds", g.head.Len(), res.Rounds)
	}
}

func TestGreedyExploitsBestAction(t *testing.T) {
	env := testEnv(t, 3, 100)
	cfg := GreedyConfig{WarmupActions: 8, Epsilon: 0, Seed: 3} // never explore
	g, err := NewGreedy(env, cfg)
	if err != nil {
		t.Fatalf("NewGreedy: %v", err)
	}
	if _, err := g.RunEpisode(true); err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	size := g.head.Len()
	if size != 8 {
		t.Fatalf("buffer grew without exploration: %d", size)
	}
	// Eval replays deterministically.
	a, err := g.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	b, err := g.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if a.Rounds != b.Rounds {
		t.Fatal("greedy eval not deterministic")
	}
}

func TestUniformMechanism(t *testing.T) {
	env := testEnv(t, 3, 100)
	if _, err := NewUniform(env, 0); err == nil {
		t.Fatal("accepted zero fraction")
	}
	if _, err := NewUniform(env, 1.5); err == nil {
		t.Fatal("accepted fraction > 1")
	}
	u, err := NewUniform(env, 0.5)
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	res, err := u.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.Rounds <= 0 || res.FinalAccuracy <= 0 {
		t.Fatalf("uniform result %+v", res)
	}
}

func TestEqualTimeOracleAchievesConsistency(t *testing.T) {
	env := testEnv(t, 5, 200)
	minT := MinFeasibleTime(env)
	if minT <= 0 {
		t.Fatalf("MinFeasibleTime = %v", minT)
	}
	o, err := NewEqualTime(env, minT)
	if err != nil {
		t.Fatalf("NewEqualTime: %v", err)
	}
	res, err := o.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	// The oracle reads private parameters, so its time efficiency should
	// be near-perfect — the Lemma 1 upper reference.
	if res.TimeEfficiency < 0.95 {
		t.Fatalf("oracle time efficiency %v, want >= 0.95", res.TimeEfficiency)
	}
	if res.Rounds <= 0 {
		t.Fatal("oracle played no rounds")
	}
}

func TestEqualTimeValidation(t *testing.T) {
	env := testEnv(t, 2, 100)
	if _, err := NewEqualTime(env, 0); err == nil {
		t.Fatal("accepted zero target")
	}
}

func TestPricesForTimeHitTarget(t *testing.T) {
	env := testEnv(t, 5, 200)
	target := MinFeasibleTime(env) * 1.2
	prices := PricesForTime(env.Nodes(), target)
	for i, n := range env.Nodes() {
		resp := n.BestResponse(prices[i])
		if !resp.Participating {
			t.Fatalf("node %d declined the oracle price", i)
		}
		// Within feasibility the response time must be within 5%% of target
		// (nodes forced to their boxes may be faster).
		if resp.Time > target*1.05 {
			t.Fatalf("node %d time %v exceeds target %v", i, resp.Time, target)
		}
	}
}
