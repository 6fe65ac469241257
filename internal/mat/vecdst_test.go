package mat

import (
	"math"
	"testing"
)

func TestVecDstKernels(t *testing.T) {
	a := []float64{1, -2, 3.5, 0}
	dst := make([]float64, 4)

	if err := DivScalarVecTo(dst, a, 7); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if dst[i] != a[i]/7 {
			t.Fatalf("divScalar[%d] = %v", i, dst[i])
		}
	}
	FillVec(dst, 7)
	for i := range dst {
		if dst[i] != 7 {
			t.Fatalf("fill[%d] = %v", i, dst[i])
		}
	}
}

// TestDivScalarVecToIsTrueDivision pins the bit-identity contract: the
// kernel must divide per element, not multiply by a reciprocal — the two
// differ in the last ULP for many operands.
func TestDivScalarVecToIsTrueDivision(t *testing.T) {
	src := []float64{1, 3, 7, 11, 1e300, 5e-324}
	s := 49.0
	dst := make([]float64, len(src))
	if err := DivScalarVecTo(dst, src, s); err != nil {
		t.Fatal(err)
	}
	for i, v := range src {
		if dst[i] != v/s {
			t.Fatalf("dst[%d] = %b, want %b", i, dst[i], v/s)
		}
	}
	// Witness that the reciprocal shortcut would actually diverge here,
	// proving the test discriminates.
	inv := 1 / s
	diverged := false
	for _, v := range src {
		if v*inv != v/s {
			diverged = true
		}
	}
	if !diverged {
		t.Skip("no reciprocal-divergent operand on this platform")
	}
}

func TestVecDstShapeErrors(t *testing.T) {
	short := []float64{1}
	full := []float64{1, 2}
	if err := DivScalarVecTo(full, short, 2); err == nil {
		t.Fatal("divScalar shape mismatch accepted")
	}
	if err := DivScalarVecTo(short, full, 2); err == nil {
		t.Fatal("divScalar short dst accepted")
	}
}

// TestParallelRangeCoversAllIndices pins that the exported sharding
// primitive partitions [0,n) exactly — every index visited once — for work
// sizes on both sides of the fan-out threshold, runs at most maxBands
// bands, and numbers them 0, 1, … in ascending lo order.
func TestParallelRangeCoversAllIndices(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	for _, tc := range []struct{ n, work, maxBands int }{
		{0, 0, 4}, {1, 10, 4}, {7, 100, 4}, {1000, 1 << 20, 4}, {1024, 1 << 20, 4},
		{5, 1 << 20, 4}, {1000, 1 << 20, 3}, {1000, 1 << 20, 1},
	} {
		visits := make([]int32, tc.n)
		bandLo := make([]int, tc.maxBands)
		bands := ParallelRange(tc.n, tc.work, tc.maxBands, func(band, lo, hi int) {
			bandLo[band] = lo // one writer per band
			for i := lo; i < hi; i++ {
				visits[i]++ // disjoint ranges: no atomics needed
			}
		})
		for i, c := range visits {
			if c != 1 {
				t.Fatalf("n=%d work=%d: index %d visited %d times", tc.n, tc.work, i, c)
			}
		}
		if bands > tc.maxBands || (tc.n > 0) != (bands > 0) {
			t.Fatalf("n=%d work=%d maxBands=%d: ran %d bands", tc.n, tc.work, tc.maxBands, bands)
		}
		for b := 1; b < bands; b++ {
			if bandLo[b] <= bandLo[b-1] {
				t.Fatalf("n=%d: band %d starts at %d, band %d at %d", tc.n, b, bandLo[b], b-1, bandLo[b-1])
			}
		}
	}
}

// TestParallelRangeDeterministicSum demonstrates the documented reduction
// recipe: fixed-size per-block partials combined in block-ascending order
// give the same bits at any worker count (the blocking is what fixes the
// association, not the banding).
func TestParallelRangeDeterministicSum(t *testing.T) {
	n := 4096
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(i)) * 1e3
	}
	const block = 512
	blockSum := func() float64 {
		partials := make([]float64, (n+block-1)/block)
		ParallelRange(len(partials), n, len(partials), func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				end := (b + 1) * block
				if end > n {
					end = n
				}
				for _, x := range v[b*block : end] {
					partials[b] += x
				}
			}
		})
		var sum float64
		for _, p := range partials {
			sum += p
		}
		return sum
	}
	defer SetWorkers(0)
	SetWorkers(1)
	ref := blockSum()
	for _, workers := range []int{2, 4, 8} {
		SetWorkers(workers)
		if got := blockSum(); got != ref {
			t.Fatalf("workers=%d: parallel sum %b != single-worker %b", workers, got, ref)
		}
	}
}
