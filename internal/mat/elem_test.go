package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tanhSpecials are tanh inputs at its edges: ±0, ±Inf, NaN, subnormals,
// 0.625 (where math.tanh switches from the rational polynomial to exp) and
// its neighbours, and the 0.5·MAXLOG saturation edge and its neighbours,
// each with both signs.
func tanhSpecials() []float64 {
	const sat = 0.5 * 8.8029691931113054295988e+01
	pos := []float64{
		0, math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
		0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		sat, math.Nextafter(sat, 0), math.Nextafter(sat, 100),
		-0.6292001413901859, 1e-8, 0.5, 1, 20, 1e300, math.MaxFloat64,
	}
	var out []float64
	for _, v := range pos {
		out = append(out, v, -v)
	}
	return out
}

// checkTanh runs TanhVec over a copy of in and compares every element
// with math.Tanh by bits (any NaN equals any NaN).
func checkTanh(t *testing.T, in []float64) {
	t.Helper()
	got := append([]float64(nil), in...)
	TanhVec(got)
	want := append([]float64(nil), in...)
	tanhLoop(want)
	if i, ok := sameFloats(got, want); !ok {
		t.Fatalf("tanh(%v) (%#x) = %v (%#x), math.Tanh %v (%#x); input %v",
			in[i], math.Float64bits(in[i]), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), in)
	}
}

// TestTanhKernelMatchesMathTanh pins TanhVec, which runs tanhKernel over
// every whole block of four, to math.Tanh bit for bit. Every special input
// is tried in every lane of an all-small block (the polynomial-only fast
// path) and of a mixed block (both branches, blended), so −0 is checked in
// both block kinds; slice lengths 0–9 cover the scalar tails.
func TestTanhKernelMatchesMathTanh(t *testing.T) {
	if !haveTanhKernel {
		t.Skip("no tanh kernel: no AVX2 and FMA, or math.Exp without FMA")
	}
	// mixed keeps a large lane whichever lane v replaces.
	small := []float64{0.1, -0.3, 0.6, -0.0625}
	mixed := []float64{0.1, -1.5, 0.6, 3}
	for _, v := range tanhSpecials() {
		for lane := 0; lane < 4; lane++ {
			for _, base := range [][]float64{small, mixed} {
				block := append([]float64(nil), base...)
				block[lane] = v
				checkTanh(t, block)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 9; n++ {
		for rep := 0; rep < 50; rep++ {
			in := make([]float64, n)
			for i := range in {
				in[i] = rng.NormFloat64() * []float64{0.2, 1, 30}[rep%3]
			}
			checkTanh(t, in)
		}
	}
}

// TestTanhKernelRandom compares TanhVec with math.Tanh on 10⁸ inputs (10⁶
// with -short), a third each from normal(0, 0.3) (mostly fast-path
// blocks), uniform ±50 (every branch, saturation included) and raw bit
// patterns (NaNs, infinities, subnormals and huge values).
func TestTanhKernelRandom(t *testing.T) {
	if !haveTanhKernel {
		t.Skip("no tanh kernel: no AVX2 and FMA, or math.Exp without FMA")
	}
	total := 100_000_000
	if testing.Short() {
		total = 1_000_000
	}
	draws := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"normal(0,0.3)", func(r *rand.Rand) float64 { return r.NormFloat64() * 0.3 }},
		{"uniform±50", func(r *rand.Rand) float64 { return (2*r.Float64() - 1) * 50 }},
		{"bits", func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) }},
	}
	for d, dr := range draws {
		t.Run(dr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + d)))
			buf := make([]float64, 4096)
			for done := 0; done < total/len(draws); done += len(buf) {
				for i := range buf {
					buf[i] = dr.draw(rng)
				}
				in := append([]float64(nil), buf...)
				TanhVec(buf)
				for i, x := range in {
					w := math.Tanh(x)
					if math.Float64bits(buf[i]) != math.Float64bits(w) && !(math.IsNaN(w) && math.IsNaN(buf[i])) {
						t.Fatalf("tanh(%v) (%#x) = %#x, math.Tanh %#x", x, math.Float64bits(x), math.Float64bits(buf[i]), math.Float64bits(w))
					}
				}
			}
		})
	}
}

// elemOperand returns n values in [-2, 2] with ±0, ±Inf and NaN mixed in.
func elemOperand(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 1:
			v[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		default:
			v[i] = 4*rng.Float64() - 2
		}
	}
	return v
}

// TestElementwiseKernelsMatchLoops pins the AVX2 forms of TanhGradTo,
// addRows (a row vector into every row, rows summed into one, a plain
// vector add), axpy and ScaleVec to their Go loops bit for bit, over
// ±0/±Inf/NaN operands, lengths 0–9 and a few wider ones.
func TestElementwiseKernelsMatchLoops(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(9))
	scalars := []float64{1, -0.75, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	check := func(name string, n int, got, want []float64) {
		t.Helper()
		if i, ok := sameFloats(got, want); !ok {
			t.Fatalf("%s n=%d: element %d = %v (%#x), Go loop %v (%#x)", name, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 101} {
		for rep := 0; rep < 20; rep++ {
			g, y, d := elemOperand(rng, n), elemOperand(rng, n), elemOperand(rng, n)
			s := scalars[rep%len(scalars)]

			got, want := append([]float64(nil), d...), append([]float64(nil), d...)
			TanhGradTo(got, g, y)
			tanhGradLoop(want, g, y)
			check("TanhGradTo", n, got, want)

			got, want = append([]float64(nil), d...), append([]float64(nil), d...)
			axpy(got, g, s)
			axpyLoop(want, g, s)
			check(fmt.Sprintf("axpy(s=%v)", s), n, got, want)

			got, want = append([]float64(nil), d...), append([]float64(nil), d...)
			ScaleVec(got, s)
			scaleLoop(want, s)
			check(fmt.Sprintf("ScaleVec(s=%v)", s), n, got, want)

			got, want = append([]float64(nil), d...), append([]float64(nil), d...)
			addRows(got, 0, g, 0, 1, n)
			addRowsLoop(want, 0, g, 0, 1, 0, n)
			check("addRows(vector)", n, got, want)

			for _, rows := range []int{1, 3, 5} {
				m := elemOperand(rng, rows*n)
				got, want = append([]float64(nil), m...), append([]float64(nil), m...)
				addRows(got, n, g, 0, rows, n)
				addRowsLoop(want, n, g, 0, rows, 0, n)
				check(fmt.Sprintf("addRows(row vector, rows=%d)", rows), n, got, want)

				got, want = append([]float64(nil), d...), append([]float64(nil), d...)
				addRows(got, 0, m, n, rows, n)
				addRowsLoop(want, 0, m, n, rows, 0, n)
				check(fmt.Sprintf("addRows(row sums, rows=%d)", rows), n, got, want)
			}
		}
	}
}

// BenchmarkTanhVec times TanhVec against the math.Tanh loop on 64×64
// blocks of normal(0, σ) values: at σ = 0.3 about 4% of them, and 15% of
// the 4-lane blocks, reach |x| ≥ 0.625 (the share of a Fig. 3 training
// run), at σ = 1 about 53% and most blocks.
func BenchmarkTanhVec(b *testing.B) {
	for _, sigma := range []float64{0.3, 1} {
		rng := rand.New(rand.NewSource(1))
		in := make([]float64, 64*64)
		for i := range in {
			in[i] = rng.NormFloat64() * sigma
		}
		buf := make([]float64, len(in))
		for _, bc := range []struct {
			name string
			run  func([]float64)
		}{{"TanhVec", TanhVec}, {"math.Tanh", tanhLoop}} {
			b.Run(fmt.Sprintf("%s/sigma=%v", bc.name, sigma), func(b *testing.B) {
				b.SetBytes(int64(8 * len(in)))
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					bc.run(buf)
				}
			})
		}
	}
}
