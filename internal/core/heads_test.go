package core

import (
	"math"
	"testing"
)

func TestExteriorStateDimAndFreshLayout(t *testing.T) {
	env := testEnv(t, 4, 100)
	ch := newTestChiron(t, env)
	wantDim := 3*4*env.Config().HistoryLen + 2
	if ch.stateDim != wantDim {
		t.Fatalf("exterior state dim %d, want %d", ch.stateDim, wantDim)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	state := ch.exteriorState()
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
	if want := 1 / float64(env.Config().MaxRounds); state[wantDim-1] != want {
		t.Fatalf("round index %v, want %v", state[wantDim-1], want)
	}
}

func TestLogSquashBoundsAndMidpoint(t *testing.T) {
	lo, hi := 0.01, 100.0
	if got := logSquash(100, lo, hi); math.Abs(got-hi) > 1e-6*hi {
		t.Fatalf("logSquash(+inf-ish) = %v, want %v", got, hi)
	}
	if got := logSquash(-100, lo, hi); math.Abs(got-lo) > 1e-6 {
		t.Fatalf("logSquash(-inf-ish) = %v, want %v", got, lo)
	}
	// u=0 lands at the geometric middle of the range.
	if got, want := logSquash(0, lo, hi), math.Sqrt(lo*hi); math.Abs(got-want) > 1e-9 {
		t.Fatalf("logSquash(0) = %v, want geometric mean %v", got, want)
	}
}

// TestTotalPriceHead: the exterior head maps its action into Chiron's
// total-price range, starting exploration at the range's geometric mean.
func TestTotalPriceHead(t *testing.T) {
	if got := logSquash(0, 0.1, 10); math.Abs(got-1) > 1e-9 {
		t.Fatalf("logSquash(0, 0.1, 10) = %v, want geometric mean 1", got)
	}
	ch := newTestChiron(t, testEnv(t, 4, 100))
	lo, hi := ch.priceLo, ch.priceHi
	if !(lo > 0 && lo < hi) {
		t.Fatalf("total-price range [%v, %v] not positive and ordered", lo, hi)
	}
	if got, want := logSquash(0, lo, hi), math.Sqrt(lo*hi); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("total(0) = %v, want geometric mean %v", got, want)
	}
	for _, u := range []float64{-50, 50} {
		if got := logSquash(u, lo, hi); got > hi*(1+1e-9) || got < lo*(1-1e-9) {
			t.Fatalf("total(%v) = %v outside [%v, %v]", u, got, lo, hi)
		}
	}
}

func TestSplitPricesExhaustTotal(t *testing.T) {
	prices := SplitPrices(7, []float64{0.5, -1, 2})
	var sum float64
	for _, p := range prices {
		if p <= 0 {
			t.Fatalf("non-positive price %v", p)
		}
		sum += p
	}
	if math.Abs(sum-7) > 1e-9 {
		t.Fatalf("prices sum %v, want 7", sum)
	}
}

// TestSplitPricesUnitTotal: at a unit total the split is the simplex
// projection itself — strictly positive proportions summing to one.
func TestSplitPricesUnitTotal(t *testing.T) {
	props := SplitPrices(1, []float64{1, 2, 3})
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

// TestInnerStateIsNormalizedTotal: the inner agent's state is the single
// entry total/MaxTotalPrice — the exterior action normalized by the
// fleet's saturation price (the hierarchy of Fig. 2).
func TestInnerStateIsNormalizedTotal(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	if ch.maxTotal != env.MaxTotalPrice() {
		t.Fatalf("maxTotal %v, want MaxTotalPrice %v", ch.maxTotal, env.MaxTotalPrice())
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for _, train := range []bool{false, true} {
		d, err := ch.decide(ch.exteriorState(), train)
		if err != nil {
			t.Fatalf("decide: %v", err)
		}
		want := d.total / env.MaxTotalPrice()
		if len(d.stateI) != 1 || math.Abs(d.stateI[0]-want) > 1e-12 {
			t.Fatalf("inner state %v, want [%v]", d.stateI, want)
		}
	}
}
