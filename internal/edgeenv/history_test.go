package edgeenv

import (
	"testing"

	"chiron/internal/market"
)

func TestHistoryEncodesNewestSlotLast(t *testing.T) {
	env := testEnv(t, 2, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	l, n := env.Config().HistoryLen, env.NumNodes()
	if env.HistoryDim() != 3*n*l {
		t.Fatalf("HistoryDim = %d, want %d", env.HistoryDim(), 3*n*l)
	}
	state := make([]float64, env.HistoryDim())
	env.History(state)
	// With one round played, the newest slot (last) must be populated and
	// normalized, and all older slots zero.
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

func TestHistoryIsPureFunctionOfEnv(t *testing.T) {
	env := testEnv(t, 3, 1000)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	a, b := make([]float64, env.HistoryDim()), make([]float64, env.HistoryDim())
	for i := range b {
		b[i] = 42 // History must overwrite stale contents
	}
	env.History(a)
	env.History(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-rendering differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHistoryClampsNarrowRecords: a ledger record narrower than the fleet
// (legacy trace or shrunken roster) must render zeros for the missing
// tail, not panic.
func TestHistoryClampsNarrowRecords(t *testing.T) {
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
	dst := make([]float64, env.HistoryDim())
	env.History(dst) // must not panic
	n, window := env.NumNodes(), env.Config().HistoryLen
	base := (window - 1) * 3 * n // newest slot
	if dst[base] == 0 {
		t.Fatal("clamped record rendered nothing for node 0")
	}
	if dst[base+2] != 0 || dst[base+n+2] != 0 || dst[base+2*n+2] != 0 {
		t.Fatal("missing node 2 tail should render zeros")
	}
}
