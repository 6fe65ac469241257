package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// saltedOperand returns a rows×cols matrix of values in [-2, 2] with about
// one element in six replaced by +0 or −0 and specials more set to ±Inf or
// NaN. Zeros in a left operand meeting Inf/NaN in a right one tell the
// a == 0 skip (0·Inf adds nothing) from its absence (0·Inf adds NaN); the
// specials are few so most outputs stay finite and are compared bit for
// bit.
func saltedOperand(rng *rand.Rand, rows, cols, specials int) *Matrix {
	m := New(rows, cols)
	m.Randomize(rng, 2)
	for i := range m.data {
		if rng.Intn(6) == 0 {
			m.data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
	for s := 0; s < specials && len(m.data) > 0; s++ {
		m.data[rng.Intn(len(m.data))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}
	return m
}

// sameFloats reports the first element where got and want differ in bits,
// treating any two NaNs as equal (the payload of a NaN produced from two
// NaN operands depends on operand order, which neither kernel promises).
func sameFloats(got, want []float64) (int, bool) {
	for i, g := range got {
		w := want[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return i, false
		}
	}
	return 0, true
}

// simdTiers are the assembly GEMM kernels, each with whether this CPU can
// run it. The tests and benchmarks take the kernel as an argument, so each
// tier is tested on a CPU that has both, whichever one the GEMMs pick.
var simdTiers = []struct {
	name string
	kern kernelFunc
	have bool
}{
	{"avx2", gemmKernel, haveAVX2},
	{"avx512", gemmKernel512, haveAVX512},
}

// TestStripKernelMatchesGeneric pins the float64 GEMMs, which with AVX2
// run every column through an assembly kernel, to the plain Go kernels bit
// for bit, once per SIMD tier. It covers dst widths 1–136 (two 64-column
// strips, 64+32+16+8, every narrower strip and every column tail), row
// counts that leave 0–3 rows after the last group of four and an odd row
// after the last pair, reductions on both sides of the gemmKC tile depth
// up to the N=100 exterior state's 1,202, and Inf/NaN/±0 operands, so the
// a == 0 skip of MulTo and MulTransATo and its absence in MulTransBTo are
// both pinned.
func TestStripKernelMatchesGeneric(t *testing.T) {
	for _, tier := range simdTiers {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.have {
				t.Skipf("no %s kernel: not amd64, or the CPU lacks %s, or the OS does not save its registers", tier.name, tier.name)
			}
			testStripKernel(t, tier.kern)
		})
	}
}

// deepWidths are the dst widths the 1,202-deep reduction runs at, one per
// strip combination the kernels can take and the tails on either side of
// them; the shallower reductions run every width. Every width there would
// make the test take minutes under the race detector.
var deepWidths = map[int]bool{1: true, 5: true, 7: true, 8: true, 15: true, 24: true, 56: true, 63: true, 64: true, 65: true, 100: true, 120: true, 128: true, 129: true, 136: true}

func testStripKernel(t *testing.T, kern kernelFunc) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{0, 1, 63, 64, 65, 200, 1202} {
		for cols := 1; cols <= 136; cols++ {
			if k > 200 && !deepWidths[cols] {
				continue
			}
			b := saltedOperand(rng, k, cols, 3)
			bt := transpose(b)
			for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 33} {
				a := saltedOperand(rng, rows, k, 2)
				at := transpose(a)

				want := map[string]*Matrix{"MulTo": New(rows, cols), "MulTransATo": New(rows, cols), "MulTransBTo": New(rows, cols)}
				for _, m := range want {
					m.Fill(math.NaN())
				}
				gemm(want["MulTo"].data, cols, a.data, k, b.data, cols, rows)
				gemmTransA(want["MulTransATo"].data, cols, at.data, rows, k, b.data, cols, rows)
				gemmTransB(want["MulTransBTo"].data, cols, a.data, k, bt.data, cols, rows)

				for _, op := range []struct {
					name string
					run  func(dst *Matrix) error
				}{
					{"MulTo", func(dst *Matrix) error { return mulTo(kern, dst, a, b) }},
					{"MulTransATo", func(dst *Matrix) error { return mulTransATo(kern, dst, at, b) }},
					{"MulTransBTo", func(dst *Matrix) error { return mulTransBTo(kern, dst, a, bt) }},
				} {
					dst := New(rows, cols)
					dst.Fill(999) // stale contents must be fully overwritten
					if err := op.run(dst); err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
					if i, ok := sameFloats(dst.data, want[op.name].data); !ok {
						t.Fatalf("%s rows=%d k=%d cols=%d: element (%d,%d) = %v (%#x), Go kernel %v (%#x)",
							op.name, rows, k, cols, i/cols, i%cols,
							dst.data[i], math.Float64bits(dst.data[i]), want[op.name].data[i], math.Float64bits(want[op.name].data[i]))
					}
				}
			}
		}
	}

	// A running sum of −0 that meets a ±0 a value and an Inf b keeps its
	// bits: the skipped product adds nothing (or −0, which is the same),
	// where +0 would turn it into +0 and the product itself into NaN. The
	// GEMMs cannot start a sum at −0, so this loads it into the kernel
	// directly, in every strip and tail column and in every row of a group.
	negZero := math.Copysign(0, -1)
	for cols := 1; cols <= 136; cols++ {
		for n := 1; n <= 4; n++ {
			dst := make([]float64, n*cols)
			for i := range dst {
				dst[i] = negZero
			}
			a := make([]float64, 2*n)
			for i := range a {
				a[i] = math.Copysign(0, float64(i%2*2-1))
			}
			b := make([]float64, 2*cols)
			for i := range b {
				b[i] = math.Inf(1 - i%2*2)
			}
			kernelRows(kern, dst, cols, a, 2, 1, b, cols, 2, cols, n, true, true)
			for i, v := range dst {
				if math.Float64bits(v) != math.Float64bits(negZero) {
					t.Fatalf("cols=%d rows=%d: element (%d,%d) = %v (%#x), want -0", cols, n, i/cols, i%cols, v, math.Float64bits(v))
				}
			}
		}
	}
}

// TestMulTransBToConcurrentCallers runs MulTransBTo from several
// goroutines at once, as the PPO update's critic and actor streams do, with
// panel sizes that differ per caller, so the shared free list of packed
// panels hands each call a panel of its own.
func TestMulTransBToConcurrentCallers(t *testing.T) {
	const callers, calls = 4, 50
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		a := saltedOperand(rng, 9, 8*(c+1)+3, 0)
		bt := saltedOperand(rng, 8*(c+2)+5, 8*(c+1)+3, 0)
		want := New(a.rows, bt.rows)
		gemmTransB(want.data, want.cols, a.data, a.cols, bt.data, bt.rows, a.rows)
		go func() {
			dst := New(a.rows, bt.rows)
			for i := 0; i < calls; i++ {
				if err := MulTransBTo(dst, a, bt); err != nil {
					errs <- err
					return
				}
				if j, ok := sameFloats(dst.data, want.data); !ok {
					errs <- fmt.Errorf("call %d: element %d = %v, want %v", i, j, dst.data[j], want.data[j])
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestStripRowBoundsChecked pins kernelRows, the Go-side guard in front
// of the assembly: an operand too short for the rows, reduction and
// columns asked for panics before any kernel this CPU has reads or writes
// past it.
func TestStripRowBoundsChecked(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no assembly kernel on this CPU")
	}
	const n, k, cols = 3, 4, 19
	for _, tc := range []struct {
		name       string
		dst, a, b  int // operand lengths
		aRowStride int
		aStride    int
		shouldFail bool
	}{
		{"exact", n * cols, n * k, k * cols, k, 1, false},
		{"short dst", n*cols - 1, n * k, k * cols, k, 1, true},
		{"short a", n * cols, n*k - 1, k * cols, k, 1, true},
		{"strided a", n * cols, (k-1)*5 + n, k * cols, 1, 5, false},
		{"short strided a", n * cols, (k-1)*5 + n - 1, k * cols, 1, 5, true},
		{"short b", n * cols, n * k, k*cols - 1, k, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range simdTiers {
				if !tier.have {
					continue
				}
				func() {
					defer func() {
						if r := recover(); (r != nil) != tc.shouldFail {
							t.Errorf("%s: panic = %v, want panic %v", tier.name, r, tc.shouldFail)
						}
					}()
					kernelRows(tier.kern, make([]float64, tc.dst), cols, make([]float64, tc.a), tc.aRowStride, tc.aStride, make([]float64, tc.b), cols, k, cols, n, false, true)
				}()
			}
		})
	}
}
