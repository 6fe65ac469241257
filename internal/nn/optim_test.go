package nn

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
)

// adamOracle runs the scalar Adam loop over copies of a parameter set.
type adamOracle struct {
	p, m, v [][]float64
}

func newAdamOracle(params []Param) *adamOracle {
	o := &adamOracle{}
	for _, p := range params {
		o.p = append(o.p, mat.CloneVec(p.Value.Data()))
		o.m = append(o.m, make([]float64, p.Value.Size()))
		o.v = append(o.v, make([]float64, p.Value.Size()))
	}
	return o
}

func (o *adamOracle) step(params []Param, c mat.AdamCoeffs) {
	for i, p := range params {
		adamScalar(o.p[i], p.Grad.Data(), o.m[i], o.v[i], &c)
	}
}

// sameBits reports the first index where got and want differ in bits,
// treating any two NaNs as equal.
func sameBits(got, want []float64) (int, bool) {
	for i, g := range got {
		if w := want[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// TestAdamVectorMatchesScalar pins Adam.Step, which with AVX2 updates each
// block four elements at a time in assembly, to the scalar loop bit for
// bit: over parameter blocks of every length 0–37 (every tail length after
// the vector part), with ±0, ±Inf and NaN gradients mixed in, across
// several steps, and across a State/SetState resume into a fresh optimizer.
func TestAdamVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	newParams := func(values [][]float64) []Param {
		var ps []Param
		for n := 0; n <= 37; n++ {
			v := mat.New(1, n)
			if values != nil {
				copy(v.Data(), values[n])
			} else {
				v.Randomize(rng, 2)
			}
			ps = append(ps, Param{Value: v, Grad: mat.New(1, n)})
		}
		return ps
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	fillGrads := func(ps []Param) {
		for _, p := range ps {
			g := p.Grad.Data()
			for j := range g {
				if rng.Intn(20) == 0 {
					g[j] = specials[rng.Intn(len(specials))]
				} else {
					g[j] = rng.NormFloat64()
				}
			}
		}
	}
	check := func(step int, ps []Param, opt *Adam, o *adamOracle) {
		t.Helper()
		_, m, v := opt.State()
		for i, p := range ps {
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"param", p.Value.Data(), o.p[i]}, {"m", m[i], o.m[i]}, {"v", v[i], o.v[i]}} {
				if j, ok := sameBits(c.got, c.want); !ok {
					t.Fatalf("step %d, block len %d: %s[%d] = %v (%#x), scalar loop %v (%#x)",
						step, i, c.name, j, c.got[j], math.Float64bits(c.got[j]), c.want[j], math.Float64bits(c.want[j]))
				}
			}
		}
	}

	ps := newParams(nil)
	opt := NewAdam(ps, 0.01)
	o := newAdamOracle(ps)
	step := 0
	for ; step < 5; step++ {
		fillGrads(ps)
		if err := opt.Step(); err != nil {
			t.Fatal(err)
		}
		o.step(ps, opt.coeffs())
		check(step, ps, opt, o)
	}

	values := make([][]float64, len(ps))
	for i, p := range ps {
		values[i] = p.Value.Data()
	}
	resumed := newParams(values)
	ropt := NewAdam(resumed, 0.01)
	if err := ropt.SetState(opt.State()); err != nil {
		t.Fatal(err)
	}
	for ; step < 8; step++ {
		fillGrads(resumed)
		if err := ropt.Step(); err != nil {
			t.Fatal(err)
		}
		o.step(resumed, ropt.coeffs())
		check(step, resumed, ropt, o)
	}
}

// BenchmarkAdamStep times one Adam step over the N=100 exterior agent's
// input layer weights (1202×64), the largest parameter block the agents
// train.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := Param{Value: mat.New(1202, 64), Grad: mat.New(1202, 64)}
	p.Value.Randomize(rng, 1)
	p.Grad.Randomize(rng, 1)
	opt := NewAdam([]Param{p}, 1e-3)
	b.SetBytes(int64(8 * 4 * p.Value.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
