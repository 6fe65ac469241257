package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/market"
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

// fullPrices returns a price vector driving every node near its max.
func fullPrices(env *edgeenv.Env) []float64 {
	prices := make([]float64, env.NumNodes())
	for i, n := range env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax)
	}
	return prices
}

// ---------------------------------------------------------------------------
// Action transforms.

func TestSquash(t *testing.T) {
	if got := Squash(0, 0, 10); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Squash(0) = %v, want 5", got)
	}
	if got := Squash(100, 2, 8); math.Abs(got-8) > 1e-6 {
		t.Fatalf("Squash(+inf-ish) = %v, want 8", got)
	}
	if got := Squash(-100, 2, 8); math.Abs(got-2) > 1e-6 {
		t.Fatalf("Squash(-inf-ish) = %v, want 2", got)
	}
	v := SquashVec([]float64{-100, 0, 100}, 0, 1)
	if v[0] > 0.001 || math.Abs(v[1]-0.5) > 1e-12 || v[2] < 0.999 {
		t.Fatalf("SquashVec = %v", v)
	}
}

// Property: Squash always lands strictly inside (lo, hi) for finite input
// and is monotone.
func TestSquashProperty(t *testing.T) {
	f := func(u1, u2 float64) bool {
		if math.IsNaN(u1) || math.IsNaN(u2) || math.Abs(u1) > 500 || math.Abs(u2) > 500 {
			return true
		}
		lo, hi := 1.0, 4.0
		a, b := Squash(u1, lo, hi), Squash(u2, lo, hi)
		if a < lo || a > hi || b < lo || b > hi {
			return false
		}
		if u1 < u2 && a > b {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSquashBoundsAndMidpoint(t *testing.T) {
	lo, hi := 0.01, 100.0
	if got := LogSquash(100, lo, hi); math.Abs(got-hi) > 1e-6*hi {
		t.Fatalf("LogSquash(+inf-ish) = %v, want %v", got, hi)
	}
	if got := LogSquash(-100, lo, hi); math.Abs(got-lo) > 1e-6 {
		t.Fatalf("LogSquash(-inf-ish) = %v, want %v", got, lo)
	}
	// u=0 lands at the geometric middle of the range.
	if got, want := LogSquash(0, lo, hi), math.Sqrt(lo*hi); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LogSquash(0) = %v, want geometric mean %v", got, want)
	}
}

func TestSimplexProject(t *testing.T) {
	props, err := SimplexProject([]float64{1, 2, 3})
	if err != nil {
		t.Fatalf("SimplexProject: %v", err)
	}
	var sum float64
	for _, p := range props {
		if p <= 0 {
			t.Fatalf("proportion %v <= 0", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("proportions sum to %v", sum)
	}
}

// ---------------------------------------------------------------------------
// Encoders.

func TestExteriorEncoderDimAndFreshLayout(t *testing.T) {
	env := testEnv(t, 4, 100)
	obs, err := NewExteriorEncoder(env)
	if err != nil {
		t.Fatalf("NewExteriorEncoder: %v", err)
	}
	wantDim := 3*4*env.Config().HistoryLen + 2
	if obs.Dim() != wantDim {
		t.Fatalf("Dim = %d, want %d", obs.Dim(), wantDim)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	state := obs.State()
	if len(state) != wantDim {
		t.Fatalf("state len %d, want %d", len(state), wantDim)
	}
	// Fresh episode: zero history, full budget, round 1.
	for i := 0; i < wantDim-2; i++ {
		if state[i] != 0 {
			t.Fatalf("fresh history entry %d = %v, want 0", i, state[i])
		}
	}
	if state[wantDim-2] != 1 {
		t.Fatalf("budget fraction %v, want 1", state[wantDim-2])
	}
}

func TestHistoryEncoderEncodesNewestSlotLast(t *testing.T) {
	env := testEnv(t, 2, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	h := NewHistoryEncoder(env)
	state := make([]float64, h.Dim())
	h.EncodeTo(state)
	l := env.Config().HistoryLen
	n := env.NumNodes()
	// With one round played, the newest slot (last) must be populated and
	// all older slots zero.
	newest := (l - 1) * 3 * n
	var nonzero bool
	for i := newest; i < newest+3*n; i++ {
		if state[i] != 0 {
			nonzero = true
		}
		if state[i] < 0 || state[i] > 1.0001 {
			t.Fatalf("state[%d] = %v not normalized", i, state[i])
		}
	}
	if !nonzero {
		t.Fatal("newest history slot empty after a round")
	}
	for i := 0; i < newest; i++ {
		if state[i] != 0 {
			t.Fatalf("older slot %d populated after one round", i)
		}
	}
}

func TestMyopicEncoderOmitsLongTermEntries(t *testing.T) {
	env := testEnv(t, 3, 100)
	myopic, err := NewMyopicEncoder(env)
	if err != nil {
		t.Fatalf("NewMyopicEncoder: %v", err)
	}
	exterior, err := NewExteriorEncoder(env)
	if err != nil {
		t.Fatalf("NewExteriorEncoder: %v", err)
	}
	if myopic.Dim() != exterior.Dim()-2 {
		t.Fatalf("myopic dim %d, want %d", myopic.Dim(), exterior.Dim()-2)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	// The myopic observation must equal the exterior history block exactly.
	m, e := myopic.State(), exterior.State()
	for i, v := range m {
		if e[i] != v {
			t.Fatalf("myopic[%d] = %v != exterior[%d] = %v", i, v, i, e[i])
		}
	}
}

func TestEncodingIsPureFunctionOfEnv(t *testing.T) {
	env := testEnv(t, 3, 1000)
	obs, err := NewExteriorEncoder(env)
	if err != nil {
		t.Fatalf("NewExteriorEncoder: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	a, b := obs.State(), obs.State()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-encoding differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConcatValidation(t *testing.T) {
	if _, err := NewConcat(); err == nil {
		t.Fatal("NewConcat accepted no parts")
	}
}

func TestConditioningEncoder(t *testing.T) {
	env := testEnv(t, 2, 100)
	c := NewConditioningEncoder(env)
	if c.Dim() != 1 {
		t.Fatalf("Dim = %d, want 1", c.Dim())
	}
	total := 0.5 * env.MaxTotalPrice()
	s := c.State(total)
	if len(s) != 1 || math.Abs(s[0]-0.5) > 1e-12 {
		t.Fatalf("State(%v) = %v, want [0.5]", total, s)
	}
}

// ---------------------------------------------------------------------------
// Heads.

func TestBoundedScalarHead(t *testing.T) {
	h := BoundedScalarHead{Lo: 0.1, Hi: 10}
	if got := h.Total(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Total(0) = %v, want geometric mean 1", got)
	}
	if got := h.Total(50); got > 10+1e-9 || got < 0.1 {
		t.Fatalf("Total out of bounds: %v", got)
	}
}

func TestSimplexHeadPricesExhaustTotal(t *testing.T) {
	h := SimplexHead{}
	prices, err := h.Prices(7, []float64{0.5, -1, 2})
	if err != nil {
		t.Fatalf("Prices: %v", err)
	}
	var sum float64
	for _, p := range prices {
		if p < 0 {
			t.Fatalf("negative price %v", p)
		}
		sum += p
	}
	if math.Abs(sum-7) > 1e-9 {
		t.Fatalf("prices sum %v, want 7", sum)
	}
}

func TestBoundedVectorHead(t *testing.T) {
	h := BoundedVectorHead{Lo: 0, Hi: 2}
	prices := h.Prices([]float64{-100, 0, 100})
	if prices[0] > 0.01 || math.Abs(prices[1]-1) > 1e-12 || prices[2] < 1.99 {
		t.Fatalf("Prices = %v", prices)
	}
}

func TestStaticHead(t *testing.T) {
	if _, err := NewStaticHead(nil); err == nil {
		t.Fatal("accepted empty prices")
	}
	src := []float64{1, 2}
	h, err := NewStaticHead(src)
	if err != nil {
		t.Fatalf("NewStaticHead: %v", err)
	}
	src[0] = 99 // the head must have cloned
	if h.Prices()[0] != 1 {
		t.Fatal("StaticHead aliased caller slice")
	}
}

// ---------------------------------------------------------------------------
// Replay head.

func TestReplayHeadValidation(t *testing.T) {
	if _, err := NewReplayHead(-0.1); err == nil {
		t.Fatal("accepted negative epsilon")
	}
	if _, err := NewReplayHead(1.5); err == nil {
		t.Fatal("accepted epsilon > 1")
	}
}

func TestReplayHeadSelectAndScore(t *testing.T) {
	h, err := NewReplayHead(0)
	if err != nil {
		t.Fatalf("NewReplayHead: %v", err)
	}
	h.Seed([]float64{1})
	h.Seed([]float64{2})
	h.Seed([]float64{3})
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	rng := rand.New(rand.NewSource(1))
	// Score entry 1 best, entry 0 worse.
	h.Score(0, 1)
	h.Score(1, 5)
	if idx := h.Select(rng, true, nil); idx != 1 {
		t.Fatalf("Select = %d, want best index 1", idx)
	}
	// First score sets, second folds in the EMA with the exact paper
	// constants (0.9/0.1).
	h.Score(1, 10)
	want := 0.9*5.0 + 0.1*10.0
	if got := h.Snapshot()[1].Reward; got != want {
		t.Fatalf("EMA reward %v, want %v", got, want)
	}
}

func TestReplayHeadExploreAppends(t *testing.T) {
	h, err := NewReplayHead(1) // always explore when training
	if err != nil {
		t.Fatalf("NewReplayHead: %v", err)
	}
	h.Seed([]float64{1})
	rng := rand.New(rand.NewSource(1))
	idx := h.Select(rng, true, func() []float64 { return []float64{42} })
	if idx != 1 || h.Len() != 2 {
		t.Fatalf("explore did not append: idx=%d len=%d", idx, h.Len())
	}
	if h.Prices(idx)[0] != 42 {
		t.Fatal("explored action not stored")
	}
	// Eval never explores even at ε=1.
	before := h.Len()
	h.Select(rng, false, nil)
	if h.Len() != before {
		t.Fatal("eval select appended an action")
	}
}

func TestReplayHeadSnapshotRestore(t *testing.T) {
	h, err := NewReplayHead(0.5)
	if err != nil {
		t.Fatalf("NewReplayHead: %v", err)
	}
	h.Seed([]float64{1, 2})
	h.Score(0, 3)
	snap := h.Snapshot()

	h2, err := NewReplayHead(0.5)
	if err != nil {
		t.Fatalf("NewReplayHead: %v", err)
	}
	if err := h2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := h2.Snapshot()
	if len(got) != 1 || got[0].Reward != 3 || !got[0].Tried || got[0].Prices[1] != 2 {
		t.Fatalf("restored %+v", got)
	}
	if err := h2.Restore(nil); err == nil {
		t.Fatal("Restore accepted empty buffer")
	}
	if err := h2.Restore([]ScoredAction{{}}); err == nil {
		t.Fatal("Restore accepted action with no prices")
	}
}

// TestHistoryEncoderClampsNarrowRecords: a ledger record narrower than the
// fleet (legacy trace or shrunken roster) must encode zeros for the
// missing tail, not panic.
func TestHistoryEncoderClampsNarrowRecords(t *testing.T) {
	env := testEnv(t, 3, 100)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := env.Ledger().Commit(market.Round{
		Prices:       []float64{1, 1},
		Freqs:        []float64{2e8, 0},
		Times:        []float64{1.5, 0},
		Participants: 1,
		Payment:      0.5,
	}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	enc := NewHistoryEncoder(env)
	dst := make([]float64, enc.Dim())
	enc.EncodeTo(dst) // must not panic
	n, window := env.NumNodes(), env.Config().HistoryLen
	base := (window - 1) * 3 * n // newest slot
	if dst[base] == 0 {
		t.Fatal("clamped record encoded nothing for node 0")
	}
	if dst[base+2] != 0 || dst[base+n+2] != 0 || dst[base+2*n+2] != 0 {
		t.Fatal("missing node 2 tail should encode zeros")
	}
}
