package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScaleCloneSum(t *testing.T) {
	v := []float64{1, 2, 3}
	c := CloneVec(v)
	ScaleVec(v, 2)
	if c[0] != 1 {
		t.Fatal("CloneVec aliases source")
	}
	if SumVec(v) != 12 {
		t.Fatalf("SumVec = %v", SumVec(v))
	}
}

func TestMeanStd(t *testing.T) {
	if MeanVec(nil) != 0 {
		t.Fatal("MeanVec(nil) != 0")
	}
	if StdVec([]float64{5}) != 0 {
		t.Fatal("StdVec(single) != 0")
	}
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if MeanVec(v) != 5 {
		t.Fatalf("MeanVec = %v", MeanVec(v))
	}
	if math.Abs(StdVec(v)-2) > 1e-12 {
		t.Fatalf("StdVec = %v, want 2", StdVec(v))
	}
}

func TestMaxMinVec(t *testing.T) {
	v := []float64{3, -1, 7, 2}
	maxv, maxi := MaxVec(v)
	if maxv != 7 || maxi != 2 {
		t.Fatalf("MaxVec = %v,%d", maxv, maxi)
	}
	if _, i := MaxVec(nil); i != -1 {
		t.Fatal("MaxVec(nil) index != -1")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	out, err := Softmax(nil, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Softmax: %v", err)
	}
	var sum float64
	for i, v := range out {
		if v <= 0 {
			t.Fatalf("softmax[%d] = %v, want > 0", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
}

func TestSoftmaxStability(t *testing.T) {
	out, err := Softmax(nil, []float64{1000, 1001, 999})
	if err != nil {
		t.Fatalf("Softmax: %v", err)
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", out)
		}
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	v := []float64{0, 0}
	if _, err := Softmax(v, v); err != nil {
		t.Fatalf("Softmax in place: %v", err)
	}
	if math.Abs(v[0]-0.5) > 1e-12 {
		t.Fatalf("softmax in place = %v", v)
	}
}

// Property: softmax output always sums to one and is invariant to adding a
// constant to all logits.
func TestSoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.Abs(shift) > 100 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		v := make([]float64, n)
		shifted := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * 5
			shifted[i] = v[i] + shift
		}
		a, err := Softmax(nil, v)
		if err != nil {
			return false
		}
		b, err := Softmax(nil, shifted)
		if err != nil {
			return false
		}
		var sum float64
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
			sum += a[i]
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{1, 3}
	Normalize(v)
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Fatalf("Normalize = %v", v)
	}
	// Degenerate inputs fall back to uniform.
	z := []float64{0, 0, 0}
	Normalize(z)
	for _, x := range z {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Fatalf("Normalize degenerate = %v", z)
		}
	}
	neg := []float64{-1, -1}
	Normalize(neg)
	if neg[0] != 0.5 {
		t.Fatalf("Normalize negative = %v", neg)
	}
}
