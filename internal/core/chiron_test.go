package core

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/mat"
	"chiron/internal/mechanism"
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

func newTestChiron(t *testing.T, env *edgeenv.Env) *Chiron {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 5
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ch
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := DefaultConfig()
	bad.MinUpdateSamples = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative min update samples")
	}
	bad = DefaultConfig()
	bad.Exterior.Gamma = 2
	if _, err := New(testEnv(t, 2, 100), bad); err == nil {
		t.Fatal("New accepted bad exterior PPO config")
	}
}

func TestAgentDimensions(t *testing.T) {
	env := testEnv(t, 4, 200)
	ch := newTestChiron(t, env)
	if ch.Exterior().Policy().ActionDim() != 1 {
		t.Fatalf("exterior action dim %d, want 1", ch.Exterior().Policy().ActionDim())
	}
	if ch.Inner().Policy().ActionDim() != 4 {
		t.Fatalf("inner action dim %d, want N=4", ch.Inner().Policy().ActionDim())
	}
}

func TestPricingRespectsEqn13(t *testing.T) {
	env := testEnv(t, 3, 200)
	ch := newTestChiron(t, env)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	d, err := ch.decide(ch.exteriorState(), false)
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	// Per-node prices must sum to the exterior total (Σpr = 1).
	var sum float64
	for _, p := range d.prices {
		if p < 0 {
			t.Fatalf("negative price %v", p)
		}
		sum += p
	}
	if math.Abs(sum-d.total) > 1e-9*d.total {
		t.Fatalf("prices sum %v != total %v", sum, d.total)
	}
	// Total must respect the squash bounds.
	if d.total < ch.priceLo || d.total > ch.priceHi {
		t.Fatalf("total %v outside [%v,%v]", d.total, ch.priceLo, ch.priceHi)
	}
	// The inner state must be the normalized exterior action (hierarchy).
	if math.Abs(d.stateI[0]-d.total/ch.maxTotal) > 1e-12 {
		t.Fatalf("inner state %v != normalized total %v", d.stateI[0], d.total/ch.maxTotal)
	}
}

func TestRunEpisodeTrainPopulatesAndClearsBuffers(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	res, err := ch.RunEpisode(true)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.Rounds == 0 {
		t.Fatal("episode played no rounds")
	}
	if ch.Episode() != 1 {
		t.Fatalf("episode counter %d", ch.Episode())
	}
	// Buffers are consumed once MinUpdateSamples transitions accumulate;
	// keep playing training episodes until an update must have fired.
	for i := 0; i < 50 && ch.pairE.Buf.Len() > 0; i++ {
		if _, err := ch.RunEpisode(true); err != nil {
			t.Fatalf("RunEpisode: %v", err)
		}
	}
	if ch.pairE.Buf.Len() != 0 || ch.pairI.Buf.Len() != 0 {
		t.Fatalf("buffers never consumed: E=%d I=%d", ch.pairE.Buf.Len(), ch.pairI.Buf.Len())
	}
}

func TestRunEpisodeEvalDoesNotLearn(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	before := mat.CloneVec(ch.Exterior().Policy().Params()[0].Value.Data())
	if _, err := ch.RunEpisode(false); err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	after := ch.Exterior().Policy().Params()[0].Value
	for i, v := range before {
		if after.Data()[i] != v {
			t.Fatal("eval episode mutated policy parameters")
		}
	}
	if ch.pairE.Buf.Len() != 0 {
		t.Fatal("eval episode stored transitions")
	}
}

func TestEvalEpisodesDeterministic(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	a, err := ch.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	b, err := ch.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if a.Rounds != b.Rounds || math.Abs(a.BudgetSpent-b.BudgetSpent) > 1e-9 {
		t.Fatalf("deterministic episodes differ: %+v vs %+v", a, b)
	}
}

func TestTrainRejectsBadEpisodeCount(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	if _, err := ch.Train(0, nil); err == nil {
		t.Fatal("Train accepted zero episodes")
	}
}

func TestTrainInvokesCallback(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	var calls int
	results, err := ch.Train(3, func(mechanism.EpisodeResult) { calls++ })
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(results) != 3 || calls != 3 {
		t.Fatalf("results %d callbacks %d", len(results), calls)
	}
	for i, r := range results {
		if r.Episode != i+1 {
			t.Fatalf("episode numbering %d at %d", r.Episode, i)
		}
	}
}

// TestTrainingImproves is the learning smoke test: after training, the
// converged deterministic policy must clear quality bars that hold across
// seeds — a strong final model, clearly better-than-uninformed time
// consistency, a positive exterior return, and budget-respecting spend.
// (The rising learning curve itself is demonstrated by the fig3 artifact;
// its early/late shape is too seed-dependent for a unit assertion.)
func TestTrainingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	env := testEnv(t, 5, 300)
	cfg := DefaultConfig()
	cfg.Seed = 5
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := ch.Train(250, nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	res, err := ch.Evaluate(3)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("converged accuracy %v, want >= 0.9", res.FinalAccuracy)
	}
	if res.TimeEfficiency < 0.7 {
		t.Fatalf("converged time efficiency %v, want >= 0.7", res.TimeEfficiency)
	}
	if res.ExteriorReturn <= 0 {
		t.Fatalf("exterior return collapsed: %v", res.ExteriorReturn)
	}
	if res.BudgetSpent > 300+1e-6 {
		t.Fatalf("spent %v over budget", res.BudgetSpent)
	}
}

func TestEvaluateAverages(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	res, err := ch.Evaluate(3)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Episode != 3 {
		t.Fatalf("Episode field %d, want eval count 3", res.Episode)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if _, err := ch.Evaluate(0); err == nil {
		t.Fatal("Evaluate accepted zero episodes")
	}
}

func TestPriceVector(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices, err := ch.PriceVector()
	if err != nil {
		t.Fatalf("PriceVector: %v", err)
	}
	if len(prices) != 3 {
		t.Fatalf("price count %d", len(prices))
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	env := testEnv(t, 3, 60)
	ch := newTestChiron(t, env)
	for ep := 0; ep < 10; ep++ {
		res, err := ch.RunEpisode(true)
		if err != nil {
			t.Fatalf("RunEpisode: %v", err)
		}
		if res.BudgetSpent > 60+1e-9 {
			t.Fatalf("episode %d spent %v > budget", ep, res.BudgetSpent)
		}
	}
}

// TestObservedNextStateFeedsNextDecide pins the one-render-per-round
// exterior state: every training Decide acts on exactly the state a fresh
// render gives, also on the first round after an episode abandoned
// mid-way (a round hook abort), and within an episode the exterior buffer
// row k's NextState is bit-identical to row k+1's State — the chain
// rl.PPO's linkNextStates follows to skip its off-chain critic pass.
func TestObservedNextStateFeedsNextDecide(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	// play runs training rounds the way mechanism.Driver does, for at most
	// limit rounds, checking each Decide's state against a fresh render.
	play := func(limit int) {
		if err := env.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for r := 0; r < limit && !env.Done(); r++ {
			fresh := ch.exteriorState()
			prices, err := ch.Decide(true)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if !sameBits(ch.lastStateE, fresh) {
				t.Fatalf("round %d: Decide state differs from a fresh render", env.Round())
			}
			res, err := env.Step(prices)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if res.Done && res.Round.Participants == 0 {
				ch.Discard(true)
				return
			}
			if err := ch.Observe(res, true); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}
	play(2) // abandoned after two observed rounds, its next state kept
	start := ch.pairE.Buf.Len()
	play(math.MaxInt)
	rows := ch.pairE.Buf.Transitions()[start:]
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
