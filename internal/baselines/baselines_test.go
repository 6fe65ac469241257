package baselines

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chiron/internal/accuracy"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/rl"
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
	bad.PPO.UpdateEpochs = 0
	if _, err := NewDRLBased(env, bad); err == nil {
		t.Fatal("accepted zero update epochs")
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
	d, err := NewDRLBased(env, cfg)
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	c, err := core.New(env, core.DefaultConfig())
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	myopic, exterior := checkpointOf(t, d).StateDim, checkpointOf(t, c).StateDim
	if myopic != exterior-2 {
		t.Fatalf("myopic state dim %d, want %d (no budget, no round index)", myopic, exterior-2)
	}
}

// TestMyopicStateIsHistoryWindow: after a round, the DRL-based
// observation is exactly the environment's history window — the same
// block that opens Chiron's exterior state.
func TestMyopicStateIsHistoryWindow(t *testing.T) {
	env := testEnv(t, 3, 100)
	d, err := NewDRLBased(env, DefaultDRLBasedConfig())
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(env.RandomPrices(rand.New(rand.NewSource(2)))); err != nil {
		t.Fatalf("Step: %v", err)
	}
	want := make([]float64, env.HistoryDim())
	env.History(want)
	got := d.state()
	if len(got) != len(want) {
		t.Fatalf("myopic state len %d, want %d", len(got), len(want))
	}
	var nonzero bool
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("myopic[%d] = %v != history[%d] = %v", i, v, i, want[i])
		}
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("myopic state empty after a round")
	}
}

func TestDRLBasedPriceSquash(t *testing.T) {
	d := &DRLBased{priceHi: 10}
	if got := d.prices([]float64{0})[0]; math.Abs(got-5) > 1e-12 {
		t.Fatalf("prices(0) = %v, want midpoint 5", got)
	}
	if got := d.prices([]float64{100})[0]; math.Abs(got-10) > 1e-6 {
		t.Fatalf("prices(+inf-ish) = %v, want 10", got)
	}
	if got := d.prices([]float64{-100})[0]; math.Abs(got) > 1e-6 {
		t.Fatalf("prices(-inf-ish) = %v, want 0", got)
	}
}

// TestDRLBasedPriceSquashVector: each node's entry is squashed on its own.
func TestDRLBasedPriceSquashVector(t *testing.T) {
	d := &DRLBased{priceHi: 2}
	prices := d.prices([]float64{-100, 0, 100})
	if len(prices) != 3 || prices[0] > 0.01 || math.Abs(prices[1]-1) > 1e-12 || prices[2] < 1.99 {
		t.Fatalf("prices = %v, want ~[0, 1, 2]", prices)
	}
}

// Property: the price squash always lands inside [0, priceHi] for finite
// input and is monotone.
func TestDRLBasedPriceSquashProperty(t *testing.T) {
	d := &DRLBased{priceHi: 4}
	f := func(u1, u2 float64) bool {
		if math.IsNaN(u1) || math.IsNaN(u2) || math.Abs(u1) > 500 || math.Abs(u2) > 500 {
			return true
		}
		p := d.prices([]float64{u1, u2})
		if p[0] < 0 || p[0] > d.priceHi || p[1] < 0 || p[1] > d.priceHi {
			return false
		}
		return !(u1 < u2 && p[0] > p[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
	if err := (GreedyConfig{Epsilon: 1.5}).Validate(); err == nil {
		t.Fatal("accepted epsilon > 1")
	}
}

// TestGreedyEpsilonValidation: the exploration rate must lie in [0, 1],
// both in the config and at construction.
func TestGreedyEpsilonValidation(t *testing.T) {
	env := testEnv(t, 2, 100)
	for _, eps := range []float64{-0.1, 1.5} {
		cfg := GreedyConfig{Epsilon: eps}
		if err := cfg.Validate(); err == nil {
			t.Fatalf("Validate accepted epsilon %v", eps)
		}
		if _, err := NewGreedy(env, cfg); err == nil {
			t.Fatalf("NewGreedy accepted epsilon %v", eps)
		}
	}
	for _, eps := range []float64{0, 1} {
		if err := (GreedyConfig{Epsilon: eps}).Validate(); err != nil {
			t.Fatalf("rejected epsilon %v: %v", eps, err)
		}
	}
}

func TestGreedyWarmupAndExploration(t *testing.T) {
	env := testEnv(t, 3, 100)
	cfg := GreedyConfig{Epsilon: 1.0, Seed: 3} // always explore
	g, err := NewGreedy(env, cfg)
	if err != nil {
		t.Fatalf("NewGreedy: %v", err)
	}
	if len(g.replay) != greedyWarmup {
		t.Fatalf("warmup buffer %d, want %d", len(g.replay), greedyWarmup)
	}
	res, err := g.RunEpisode(true)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	// With ε=1 every played round appends a new action.
	if len(g.replay) < greedyWarmup+res.Rounds {
		t.Fatalf("buffer %d after %d exploring rounds", len(g.replay), res.Rounds)
	}
}

func TestGreedyExploitsBestAction(t *testing.T) {
	env := testEnv(t, 3, 100)
	cfg := GreedyConfig{Epsilon: 0, Seed: 3} // never explore
	g, err := NewGreedy(env, cfg)
	if err != nil {
		t.Fatalf("NewGreedy: %v", err)
	}
	if _, err := g.RunEpisode(true); err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	size := len(g.replay)
	if size != greedyWarmup {
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

// greedyWith builds a Greedy whose replay buffer holds exactly the given
// untried actions.
func greedyWith(t *testing.T, epsilon float64, actions ...[]float64) *Greedy {
	t.Helper()
	g, err := NewGreedy(testEnv(t, 1, 100), GreedyConfig{Epsilon: epsilon, Seed: 1})
	if err != nil {
		t.Fatalf("NewGreedy: %v", err)
	}
	g.replay = g.replay[:0]
	for _, a := range actions {
		g.replay = append(g.replay, ScoredAction{Prices: a})
	}
	return g
}

// score plays Greedy's reward observation for replay entry idx.
func score(t *testing.T, g *Greedy, idx int, reward float64) {
	t.Helper()
	g.lastIdx = idx
	if err := g.Observe(edgeenv.StepResult{ExteriorReward: reward}, true); err != nil {
		t.Fatalf("Observe: %v", err)
	}
}

func TestGreedyReplaySelectAndScore(t *testing.T) {
	g := greedyWith(t, 0, []float64{1}, []float64{2}, []float64{3})
	// Score entry 1 best, entry 0 worse.
	score(t, g, 0, 1)
	score(t, g, 1, 5)
	prices, err := g.Decide(true)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if g.lastIdx != 1 || prices[0] != 2 {
		t.Fatalf("Decide picked entry %d (%v), want best entry 1", g.lastIdx, prices)
	}
	prices[0] = 99 // the posted vector must be a copy
	if g.replay[1].Prices[0] != 2 {
		t.Fatal("Decide aliased the replay entry")
	}
	// First score sets, second folds in the EMA with the exact paper
	// constants (0.9/0.1).
	score(t, g, 1, 10)
	if got, want := g.replay[1].Reward, 0.9*5.0+0.1*10.0; got != want {
		t.Fatalf("EMA reward %v, want %v", got, want)
	}
	// Eval never scores.
	if err := g.Observe(edgeenv.StepResult{ExteriorReward: 100}, false); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if g.replay[1].Reward != 0.9*5.0+0.1*10.0 {
		t.Fatal("eval Observe changed a score")
	}
}

func TestGreedyReplayExploreAppends(t *testing.T) {
	g := greedyWith(t, 1, []float64{1}) // always explore when training
	if _, err := g.Decide(true); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if g.lastIdx != 1 || len(g.replay) != 2 {
		t.Fatalf("explore did not append: idx=%d len=%d", g.lastIdx, len(g.replay))
	}
	if len(g.replay[1].Prices) != 1 || g.replay[1].Tried {
		t.Fatalf("explored action stored as %+v", g.replay[1])
	}
	// Eval never explores even at ε=1.
	if _, err := g.Decide(false); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if len(g.replay) != 2 {
		t.Fatal("eval Decide appended an action")
	}
}

func TestGreedyReplaySnapshotRestore(t *testing.T) {
	g := greedyWith(t, 0.5, []float64{2})
	score(t, g, 0, 3)
	ck := checkpointOf(t, g)

	g2 := greedyWith(t, 0.5, []float64{7}, []float64{8})
	if err := g2.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(g2.replay) != 1 || g2.replay[0].Reward != 3 || !g2.replay[0].Tried || g2.replay[0].Prices[0] != 2 {
		t.Fatalf("restored %+v", g2.replay)
	}
	for _, extra := range []string{`{"replay":[]}`, `{"replay":[{"prices":[]}]}`} {
		bad := *ck
		bad.Extra = []byte(extra)
		if err := g2.Restore(&bad); !errors.Is(err, rl.ErrCorruptCheckpoint) {
			t.Fatalf("Restore(%s): err %v, want ErrCorruptCheckpoint", extra, err)
		}
	}
}

func TestStaticReferencePostsClone(t *testing.T) {
	env := testEnv(t, 2, 100)
	per := 0.5 * env.MaxTotalPrice() / 2
	src := []float64{per, per}
	st := newStatic("static", env, src)
	src[0] = 0 // the reference must have cloned
	if _, err := st.RunEpisode(false); err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	rounds := env.Ledger().Rounds()
	if len(rounds) == 0 {
		t.Fatal("static reference played no rounds")
	}
	for _, r := range rounds {
		if r.Prices[0] != per || r.Prices[1] != per {
			t.Fatalf("round %d posted %v, want [%v %v]", r.Index, r.Prices, per, per)
		}
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

// TestObservedNextStateFeedsNextDecide pins the one-render-per-round
// DRL-based observation: every training Decide acts on exactly the state
// a fresh render gives, also on the first round after an episode abandoned
// mid-way (a round hook abort), and within an episode buffer row k's
// NextState is bit-identical to row k+1's State — the chain rl.PPO's
// linkNextStates follows to skip its off-chain critic pass.
func TestObservedNextStateFeedsNextDecide(t *testing.T) {
	env := testEnv(t, 3, 100)
	d, err := NewDRLBased(env, DefaultDRLBasedConfig())
	if err != nil {
		t.Fatalf("NewDRLBased: %v", err)
	}
	// play runs training rounds the way mechanism.Driver does, for at most
	// limit rounds, checking each Decide's state against a fresh render.
	play := func(limit int) {
		if err := env.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for r := 0; r < limit && !env.Done(); r++ {
			fresh := d.state()
			prices, err := d.Decide(true)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if !sameBits(d.lastState, fresh) {
				t.Fatalf("round %d: Decide state differs from a fresh render", env.Round())
			}
			res, err := env.Step(prices)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if res.Done && res.Round.Participants == 0 {
				d.Discard(true)
				return
			}
			if err := d.Observe(res, true); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}
	play(2) // abandoned after two observed rounds, its next state kept
	start := d.pair.Buf.Len()
	play(math.MaxInt)
	rows := d.pair.Buf.Transitions()[start:]
	if len(rows) < 3 || !rows[len(rows)-1].Done {
		t.Fatalf("full episode stored %d rows, last done %v", len(rows), len(rows) > 0 && rows[len(rows)-1].Done)
	}
	for k := 0; k+1 < len(rows); k++ {
		if !sameBits(rows[k].NextState, rows[k+1].State) {
			t.Fatalf("row %d NextState differs from row %d State", k, k+1)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
