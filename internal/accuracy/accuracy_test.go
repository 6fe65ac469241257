package accuracy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newCurve(t *testing.T, nodes int) *SurrogateCurve {
	t.Helper()
	c, err := NewSurrogateCurve(rand.New(rand.NewSource(1)), 0.95, 0.138, 11.4, 0, nodes)
	if err != nil {
		t.Fatalf("NewSurrogateCurve: %v", err)
	}
	return c
}

func TestSurrogateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []struct {
		aInf, b, tau, noise float64
		nodes               int
	}{
		{0, 0.1, 5, 0, 5},
		{1.5, 0.1, 5, 0, 5},
		{0.9, 0, 5, 0, 5},
		{0.9, 0.95, 5, 0, 5},
		{0.9, 0.5, 0, 0, 5},
		{0.9, 0.5, 5, -1, 5},
		{0.9, 0.5, 5, 0, 0},
	}
	for i, c := range bad {
		if _, err := NewSurrogateCurve(rng, c.aInf, c.b, c.tau, c.noise, c.nodes); err == nil {
			t.Fatalf("bad curve %d accepted", i)
		}
	}
}

func TestSurrogateMatchesTable1Calibration(t *testing.T) {
	// A(k) = 0.95 − 0.138·exp(−k/11.4) fit to the paper's Table I.
	c := newCurve(t, 100)
	all := make([]int, 100)
	for i := range all {
		all[i] = i
	}
	want := map[int]float64{16: 0.916, 23: 0.929, 31: 0.938, 34: 0.943}
	var acc float64
	for k := 1; k <= 34; k++ {
		var err error
		acc, err = c.Advance(all)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if target, ok := want[k]; ok {
			if math.Abs(acc-target) > 0.004 {
				t.Fatalf("A(%d) = %.4f, want ≈%.3f (Table I)", k, acc, target)
			}
		}
	}
}

func TestSurrogateMonotoneNoiseless(t *testing.T) {
	c := newCurve(t, 10)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	prev := c.Accuracy()
	for k := 0; k < 50; k++ {
		acc, err := c.Advance(all)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if acc < prev {
			t.Fatalf("accuracy decreased at round %d: %v -> %v", k, prev, acc)
		}
		prev = acc
	}
	if prev >= c.AInf {
		t.Fatalf("accuracy %v exceeded asymptote %v", prev, c.AInf)
	}
}

func TestSurrogatePartialParticipationSlower(t *testing.T) {
	full := newCurve(t, 10)
	half := newCurve(t, 10)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	some := []int{0, 1, 2, 3, 4}
	for k := 0; k < 20; k++ {
		if _, err := full.Advance(all); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if _, err := half.Advance(some); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	if half.Accuracy() >= full.Accuracy() {
		t.Fatalf("partial participation not slower: %v >= %v", half.Accuracy(), full.Accuracy())
	}
}

func TestSurrogateEmptyRoundNoProgress(t *testing.T) {
	c := newCurve(t, 5)
	before := c.Accuracy()
	acc, err := c.Advance(nil)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if acc != before {
		t.Fatalf("empty round moved accuracy %v -> %v", before, acc)
	}
}

func TestSurrogateTooManyParticipants(t *testing.T) {
	c := newCurve(t, 3)
	if _, err := c.Advance([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("accepted more participants than nodes")
	}
}

func TestSurrogateResetRestoresStart(t *testing.T) {
	c := newCurve(t, 5)
	start := c.Accuracy()
	for k := 0; k < 10; k++ {
		if _, err := c.Advance([]int{0, 1, 2, 3, 4}); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	got, err := c.Reset()
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got != start {
		t.Fatalf("Reset accuracy %v, want %v", got, start)
	}
}

func TestPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []Preset{PresetMNIST, PresetFashion, PresetCIFAR} {
		c, err := NewPresetCurve(rng, p, 10)
		if err != nil {
			t.Fatalf("preset %v: %v", p, err)
		}
		if c.Accuracy() < 0 || c.Accuracy() > 0.2 {
			t.Fatalf("preset %v initial accuracy %v, want near random", p, c.Accuracy())
		}
	}
	// PresetMNISTLarge is a two-term fit to Table I; its A(0) is random
	// guessing like the others (0.95 − 0.712 − 0.138 = 0.10).
	large, err := NewPresetCurve(rng, PresetMNISTLarge, 100)
	if err != nil {
		t.Fatalf("preset large: %v", err)
	}
	if large.Accuracy() < 0.05 || large.Accuracy() > 0.2 {
		t.Fatalf("large preset A(0) = %v, want ≈0.10", large.Accuracy())
	}
	if _, err := NewPresetCurve(rng, Preset(99), 10); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestTask checks the calibrated real-training tasks: each dataset preset
// keeps its own synthetic task at the requested size, noisier from MNIST to
// CIFAR-10, and the Table I preset (a fitted curve) has none.
func TestTask(t *testing.T) {
	var prevNoise float64
	for _, p := range []Preset{PresetMNIST, PresetFashion, PresetCIFAR} {
		spec, hidden, err := Task(p, 300)
		if err != nil {
			t.Fatalf("Task(%v): %v", p, err)
		}
		if spec.Samples != 300 || hidden <= 0 {
			t.Fatalf("Task(%v) = %d samples, width %d", p, spec.Samples, hidden)
		}
		if spec.Noise <= prevNoise {
			t.Fatalf("Task(%v) noise %v, want above %v", p, spec.Noise, prevNoise)
		}
		prevNoise = spec.Noise
	}
	for _, p := range []Preset{PresetMNISTLarge, 0} {
		if _, _, err := Task(p, 300); err == nil {
			t.Fatalf("Task(%v) accepted a preset with no task", p)
		}
	}
}

func TestPresetDifficultyOrdering(t *testing.T) {
	// After the same number of full-participation rounds, MNIST should be
	// most accurate and CIFAR least, matching the real datasets.
	run := func(p Preset) float64 {
		c, err := NewPresetCurve(rand.New(rand.NewSource(3)), p, 5)
		if err != nil {
			t.Fatalf("preset %v: %v", p, err)
		}
		c.NoiseStd = 0
		all := []int{0, 1, 2, 3, 4}
		var acc float64
		for k := 0; k < 25; k++ {
			acc, err = c.Advance(all)
			if err != nil {
				t.Fatalf("Advance: %v", err)
			}
		}
		return acc
	}
	mnist, fashion, cifar := run(PresetMNIST), run(PresetFashion), run(PresetCIFAR)
	if !(mnist > fashion && fashion > cifar) {
		t.Fatalf("difficulty ordering violated: mnist %v fashion %v cifar %v", mnist, fashion, cifar)
	}
}

func TestPresetString(t *testing.T) {
	if PresetMNIST.String() != "mnist" || PresetCIFAR.String() != "cifar-10" {
		t.Fatal("preset names wrong")
	}
}

// Property: with noise enabled the accuracy stays within [0,1] no matter
// the participation pattern.
func TestSurrogateBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewSurrogateCurve(rng, 0.9, 0.8, 5, 0.05, 8)
		if err != nil {
			return false
		}
		for k := 0; k < 60; k++ {
			n := rng.Intn(9)
			parts := make([]int, n)
			for i := range parts {
				parts[i] = i
			}
			acc, err := c.Advance(parts)
			if err != nil || acc < 0 || acc > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTermCurveTable1Fit(t *testing.T) {
	// The full Table I fit: random-guess start, fast early climb, and the
	// paper's reported points on the slow tail.
	c, err := NewTwoTermCurve(rand.New(rand.NewSource(4)), 0.95, 0.138, 11.4, 0.712, 3.0, 0, 100)
	if err != nil {
		t.Fatalf("NewTwoTermCurve: %v", err)
	}
	if math.Abs(c.Accuracy()-0.10) > 1e-9 {
		t.Fatalf("A(0) = %v, want 0.10", c.Accuracy())
	}
	all := make([]int, 100)
	for i := range all {
		all[i] = i
	}
	want := map[int]float64{16: 0.916, 23: 0.929, 31: 0.938, 34: 0.943}
	var acc float64
	for k := 1; k <= 34; k++ {
		if acc, err = c.Advance(all); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if target, ok := want[k]; ok && math.Abs(acc-target) > 0.006 {
			t.Fatalf("A(%d) = %.4f, want ≈%.3f", k, acc, target)
		}
	}
}

func TestTwoTermCurveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := NewTwoTermCurve(rng, 0.95, 0.5, 5, 0.6, 3, 0, 10); err == nil {
		t.Fatal("accepted negative A(0)")
	}
	if _, err := NewTwoTermCurve(rng, 0.95, 0.5, 5, 0.1, 0, 0, 10); err == nil {
		t.Fatal("accepted Tau2 = 0")
	}
	if _, err := NewTwoTermCurve(rng, 0.95, 0.5, 5, -0.1, 3, 0, 10); err == nil {
		t.Fatal("accepted negative B2")
	}
}
