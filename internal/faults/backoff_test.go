package faults

import (
	"math"
	"testing"
)

func TestBackoffValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
		ok   bool
	}{
		{"zero value", Backoff{}, true},
		{"flat constant", Constant(0.5, 3), true},
		{"geometric capped", Backoff{Base: 1, Factor: 2, Max: 30, MaxRetries: 10}, true},
		{"negative base", Backoff{Base: -1}, false},
		{"nan base", Backoff{Base: math.NaN()}, false},
		{"inf base", Backoff{Base: math.Inf(1)}, false},
		{"negative factor", Backoff{Factor: -2}, false},
		{"nan factor", Backoff{Factor: math.NaN()}, false},
		{"negative max", Backoff{Max: -1}, false},
		{"inf max", Backoff{Max: math.Inf(1)}, false},
		{"negative retries", Backoff{MaxRetries: -1}, false},
	}
	for _, c := range cases {
		if err := c.b.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", c.name, c.b, err, c.ok)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	flat := Constant(0.5, 5)
	for a := 1; a <= 5; a++ {
		if got := flat.Delay(a); got != 0.5 {
			t.Errorf("flat Delay(%d) = %v, want 0.5", a, got)
		}
	}
	if got := flat.Delay(0); got != 0 {
		t.Errorf("Delay(0) = %v, want 0", got)
	}
	if got := flat.Delay(-3); got != 0 {
		t.Errorf("Delay(-3) = %v, want 0", got)
	}

	geo := Backoff{Base: 1, Factor: 2, MaxRetries: 10}
	for a, want := range map[int]float64{1: 1, 2: 2, 3: 4, 4: 8} {
		if got := geo.Delay(a); got != want {
			t.Errorf("geometric Delay(%d) = %v, want %v", a, got, want)
		}
	}

	capped := Backoff{Base: 1, Factor: 2, Max: 5}
	if got := capped.Delay(10); got != 5 {
		t.Errorf("capped Delay(10) = %v, want 5", got)
	}
	// A cap below Base binds immediately.
	tight := Backoff{Base: 3, Factor: 1, Max: 1}
	if got := tight.Delay(1); got != 1 {
		t.Errorf("tight-cap Delay(1) = %v, want 1", got)
	}
}

// TestBackoffOverflow drives the geometric policy far past float64 range:
// delays and totals must saturate finite (Max or MaxFloat64), never Inf or
// NaN, even at absurd retry counts.
func TestBackoffOverflow(t *testing.T) {
	uncapped := Backoff{Base: 1, Factor: 10}
	for _, a := range []int{300, 1000, 1 << 20, math.MaxInt32} {
		d := uncapped.Delay(a)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("uncapped Delay(%d) = %v, want finite", a, d)
		}
	}
	// 10^(a−1) overflows float64 past a = 309: the delay must saturate.
	for _, a := range []int{1000, 1 << 20, math.MaxInt32} {
		if d := uncapped.Delay(a); d != math.MaxFloat64 {
			t.Fatalf("uncapped Delay(%d) = %v, want saturation at MaxFloat64", a, d)
		}
	}
	capped := Backoff{Base: 1, Factor: 10, Max: 60}
	if d := capped.Delay(math.MaxInt32); d != 60 {
		t.Fatalf("capped Delay(huge) = %v, want 60", d)
	}

	rt := uncapped.RetryTime(12.5, 5000)
	if math.IsInf(rt, 0) || math.IsNaN(rt) || rt != math.MaxFloat64 {
		t.Fatalf("uncapped RetryTime(12.5, 5000) = %v, want MaxFloat64 saturation", rt)
	}

	// Monotone in the attempt count until saturation.
	prev := 0.0
	for n := 1; n <= 400; n++ {
		tot := capped.RetryTime(0, n)
		if tot < prev {
			t.Fatalf("RetryTime(0, %d) = %v < RetryTime(0, %d) = %v", n, tot, n-1, prev)
		}
		prev = tot
	}
}

// TestBackoffFlatClosedForm pins the bit-identity contract: the flat
// policy's RetryTime is the exact single-multiply closed form
// the pre-consolidation round pipeline computed.
func TestBackoffFlatClosedForm(t *testing.T) {
	const base, comm = 0.3, 7.7
	for _, factor := range []float64{0, 1} {
		b := Backoff{Base: base, Factor: factor, MaxRetries: 9}
		for n := 0; n <= 9; n++ {
			if got, want := b.RetryTime(comm, n), float64(n)*(comm+base); got != want {
				t.Errorf("factor %v: RetryTime(%d) = %v, want %v", factor, n, got, want)
			}
		}
	}
	// A binding cap (Max < Base) disables the closed form: each attempt
	// pays the capped delay instead.
	bound := Backoff{Base: 2, Factor: 1, Max: 0.5}
	if got, want := bound.RetryTime(comm, 2), (comm+0.5)+(comm+0.5); got != want {
		t.Errorf("binding cap RetryTime = %v, want %v", got, want)
	}
}
