package faults

import (
	"math"
	"testing"
)

func TestRatesValidate(t *testing.T) {
	if err := (Rates{Crash: 0.1, Straggle: 0.2, Drop: 0.1, Corrupt: 0.05}).Validate(); err != nil {
		t.Fatalf("valid rates rejected: %v", err)
	}
	if err := (Rates{Crash: -0.1}).Validate(); err == nil {
		t.Fatal("accepted negative rate")
	}
	if err := (Rates{Crash: 0.5, Straggle: 0.6}).Validate(); err == nil {
		t.Fatal("accepted rates summing past 1")
	}
	if err := (Rates{Straggle: 0.1, StraggleFactor: 1.1}).Validate(); err == nil {
		t.Fatal("accepted straggle factor below 1.5")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		if err := (Rates{Straggle: 0.1, StraggleFactor: f}).Validate(); err == nil {
			t.Fatalf("accepted straggle factor %v", f)
		}
	}
}

func TestRatesScale(t *testing.T) {
	r := Rates{Crash: 0.05, Straggle: 0.1, Drop: 0.15, Corrupt: 0.025}
	s := r.Scale(2)
	if s.Crash != 0.1 || s.Straggle != 0.2 || s.Drop != 0.3 || s.Corrupt != 0.05 {
		t.Fatalf("Scale(2) = %+v", s)
	}
	if capped := (Rates{Crash: 0.8}).Scale(5); capped.Crash != 1 {
		t.Fatalf("scaling past 1 not clamped: %v", capped.Crash)
	}
	if zero := r.Scale(0); zero.Any() {
		t.Fatalf("Scale(0) still fires: %+v", zero)
	}
	// Saturating a mix renormalizes instead of producing an invalid split.
	sat := (Rates{Crash: 0.03, Straggle: 0.06, Drop: 0.05, Corrupt: 0.03}).Scale(6)
	if err := sat.Validate(); err != nil {
		t.Fatalf("saturated scale invalid: %v", err)
	}
	if sum := sat.Crash + sat.Straggle + sat.Drop + sat.Corrupt; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("saturated sum %v, want 1", sum)
	}
	if math.Abs(sat.Straggle/sat.Crash-2) > 1e-12 {
		t.Fatalf("saturation distorted the mix proportions: %+v", sat)
	}
}

func TestScriptAt(t *testing.T) {
	s := Script{
		3: {1: {Kind: Crash}, 2: {Kind: None}},
	}
	if f, ok := s.At(3, 1); !ok || f.Kind != Crash {
		t.Fatalf("At(3,1) = %+v, %v", f, ok)
	}
	if _, ok := s.At(3, 2); ok {
		t.Fatal("a scripted None fault fired")
	}
	if _, ok := s.At(3, 0); ok {
		t.Fatal("unscripted node fired")
	}
	if _, ok := s.At(4, 1); ok {
		t.Fatal("unscripted round fired")
	}
}

func TestSamplerDeterministicAndOrderIndependent(t *testing.T) {
	rates := Rates{Crash: 0.1, Straggle: 0.2, Drop: 0.2, Corrupt: 0.1}
	a, err := NewSampler(rates, 42)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	b, err := NewSampler(rates, 42)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	type cell struct {
		f  Fault
		ok bool
	}
	const rounds, nodes = 50, 10
	forward := make(map[[2]int]cell)
	for k := 1; k <= rounds; k++ {
		for i := 0; i < nodes; i++ {
			f, ok := a.At(k, i)
			forward[[2]int{k, i}] = cell{f, ok}
		}
	}
	// Query b in reverse order: every cell must match a's answer exactly.
	for k := rounds; k >= 1; k-- {
		for i := nodes - 1; i >= 0; i-- {
			f, ok := b.At(k, i)
			want := forward[[2]int{k, i}]
			if ok != want.ok || f != want.f {
				t.Fatalf("cell (%d,%d): %+v/%v vs %+v/%v", k, i, f, ok, want.f, want.ok)
			}
		}
	}
	// Re-querying the same sampler must also be stable.
	for k := 1; k <= rounds; k++ {
		for i := 0; i < nodes; i++ {
			f, ok := a.At(k, i)
			want := forward[[2]int{k, i}]
			if ok != want.ok || f != want.f {
				t.Fatalf("re-query cell (%d,%d) drifted", k, i)
			}
		}
	}
}

func TestSamplerSeedsDiffer(t *testing.T) {
	rates := Rates{Crash: 0.3, Corrupt: 0.3}
	a, _ := NewSampler(rates, 1)
	b, _ := NewSampler(rates, 2)
	var differ bool
	for k := 1; k <= 40 && !differ; k++ {
		for i := 0; i < 5; i++ {
			fa, oka := a.At(k, i)
			fb, okb := b.At(k, i)
			if oka != okb || fa != fb {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Fatal("two seeds produced identical 200-cell schedules")
	}
}

func TestSamplerMarginalRates(t *testing.T) {
	rates := Rates{Crash: 0.1, Straggle: 0.15, Drop: 0.2, Corrupt: 0.05}
	s, _ := NewSampler(rates, 7)
	counts := make(map[Kind]int)
	const n = 20000
	for i := 0; i < n; i++ {
		if f, ok := s.At(i/100+1, i%100); ok {
			counts[f.Kind]++
		}
	}
	check := func(kind Kind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v rate %.3f, want %.2f ± 0.02", kind, got, want)
		}
	}
	check(Crash, 0.1)
	check(Straggle, 0.15)
	check(Drop, 0.2)
	check(Corrupt, 0.05)
}

func TestSamplerFaultFieldsWellFormed(t *testing.T) {
	s, _ := NewSampler(Rates{Straggle: 0.5, Drop: 0.5}, 11)
	for k := 1; k <= 100; k++ {
		for i := 0; i < 5; i++ {
			f, ok := s.At(k, i)
			if !ok {
				continue
			}
			if f.Kind != Straggle && f.Kind != Drop {
				t.Fatalf("sampled fault kind %v outside the configured rates", f.Kind)
			}
			if f.Kind == Straggle && (f.Slowdown < 1.5 || f.Slowdown > 4) {
				t.Fatalf("slowdown %v outside [1.5,4]", f.Slowdown)
			}
			if f.Kind == Drop && (f.Attempts < 1 || f.Attempts > 6) {
				t.Fatalf("attempts %d outside [1,6]", f.Attempts)
			}
		}
	}
}

func TestSamplerZeroRatesNeverFire(t *testing.T) {
	s, _ := NewSampler(Rates{}, 3)
	for k := 1; k <= 50; k++ {
		for i := 0; i < 5; i++ {
			if _, ok := s.At(k, i); ok {
				t.Fatal("zero-rate sampler fired")
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Crash: "crash", Straggle: "straggle", Drop: "drop", Corrupt: "corrupt",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
