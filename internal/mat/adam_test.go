package mat

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// adamLoop is the Go element loop of one Adam step (nn's adamScalar), the
// oracle for the kernel here.
func adamLoop(pd, gd, md, vd []float64, c *AdamCoeffs) {
	for j, g := range gd {
		g *= c.GS
		m := c.B1*md[j] + c.C1*g
		v := c.B2*vd[j] + c.C2*g*g
		md[j] = m
		vd[j] = v
		mhat := m / c.BC1
		vhat := v / c.BC2
		pd[j] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}

// adamDivisors returns every distinct bias correction 1 − β^t of Adam's
// β1 = 0.9 and β2 = 0.999 for t = 1…10^5: BC1 reaches 1 at t = 356 and BC2
// at t ≈ 37,400, so this is every divisor the kernel ever sees.
func adamDivisors() []float64 {
	var out []float64
	seen := make(map[float64]bool)
	for t := 1; t <= 100_000; t++ {
		for _, beta := range []float64{0.9, 0.999} {
			if d := 1 - math.Pow(beta, float64(t)); !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// mulMod returns a·b mod m for a, b < m.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m)
	return r
}

// nearMidpoint returns up to perN significands A in [2^52, 2^53) for each
// 0 < |N| ≤ 7 whose quotient by the significand B of d lies |N|/(B·2^s)
// from a rounding midpoint of the quotient's binade (s = 54 for A < B,
// 53 for A ≥ B), the closest any quotient gets. A quotient farther from
// every midpoint than that is rounded right by the FMA correction for any
// reciprocal error (DESIGN.md §16), so these are the dividends that could
// tell it from a divide. They solve A·2^s − (2K+1)·B = N: with B = 2^j·B′,
// B′ odd, N must be 2^j times an odd N′ and A ≡ N′·2^−(s−j) (mod B′).
func nearMidpoint(d float64, perN int) []uint64 {
	B := math.Float64bits(d)&(1<<52-1) | 1<<52
	j := uint(bits.TrailingZeros64(B))
	odd := B >> j
	if odd == 1 {
		return nil // d is a power of two: its quotients are exact
	}
	var out []uint64
	for _, s := range []uint{54, 53} {
		lo, hi := uint64(1)<<52, B
		if s == 53 {
			lo, hi = B, 1<<53
		}
		// inv = 2^−(s−j) mod odd, from 1/2 ≡ (odd+1)/2.
		inv, half := uint64(1), (odd+1)/2
		for k := uint(0); k < s-j; k++ {
			inv = mulMod(inv, half, odd)
		}
		for n := int64(-7); n <= 7; n++ {
			if n == 0 || n%(1<<j) != 0 || (n>>j)&1 == 0 {
				continue
			}
			np := uint64((n>>j)%int64(odd)+int64(odd)) % odd
			r := mulMod(np, inv, odd)
			a := lo - lo%odd + r
			if a < lo {
				a += odd
			}
			for c := 0; a < hi && c < perN; c, a = c+1, a+odd {
				out = append(out, a)
			}
		}
	}
	return out
}

// TestAdamQuotientMatchesDivide pins the Adam kernel's m̂ = m/BC1 and
// v̂ = v/BC2 to the Go divide, bit for bit, with the FMA quotients (fma,
// which must run wherever the CPU has FMA) and without (div). It runs every
// bias correction Adam uses (adamDivisors) against dividends with
// significands near a rounding midpoint (nearMidpoint), random and at the
// binade edges, at random exponents and signs within [2^-900, 2^900], and
// the same for a few bias corrections outside the range the correction
// takes. It sets one lane of three blocks in four to ±0, ±Inf, NaN, a
// negative v, or a value on either side of the gate's bounds, down among
// the subnormals and up to where quotients overflow, so blocks that take
// the correction, blocks that divide, and blocks that divide because of
// one lane all run.
//
// The coefficients expose the quotients: b1 = b2 = 1, c1 = c2 = 0, −0
// gradients and lr = 1, ε = 0 leave m as it is and v as it is but for −0
// (which becomes +0), and give p′ = p − m̂/√v̂, from p = −0. Each call
// divides by two neighbouring divisors, BC1 and BC2. The m lanes hold
// v = BC2, so v̂ = 1 and p′ = −m̂ exactly, a zero's sign included; the v
// lanes hold m = BC1, so p′ = −1/√v̂, which a wrong v̂ changes about every
// other time.
func TestAdamQuotientMatchesDivide(t *testing.T) {
	for _, tc := range []struct {
		name string
		fma  bool
		have bool
	}{{"div", false, haveAVX2}, {"fma", true, haveFMA}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.have {
				t.Skip("the CPU lacks the kernel's instructions")
			}
			testAdamQuotients(t, tc.fma)
		})
	}
}

func testAdamQuotients(t *testing.T, fma bool) {
	rng := rand.New(rand.NewSource(36))
	edges := []float64{
		0x1p-900, math.Nextafter(0x1p-900, 0), math.Nextafter(0x1p-900, 1),
		0x1p900, math.Nextafter(0x1p900, math.Inf(1)), math.Nextafter(0x1p900, 0),
		0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), -1.5,
	}
	// dividends returns the test dividends for divisor d, a multiple of 4.
	dividends := func(d float64) []float64 {
		sigs := nearMidpoint(d, 2)
		sigs = append(sigs, 1<<52, 1<<52+1, 1<<53-1, 1<<53-2, 1<<52|rng.Uint64()>>12, 1<<52|rng.Uint64()>>12)
		var out []float64
		for _, s := range sigs {
			a := math.Ldexp(float64(s), -52+rng.Intn(1800)-899)
			out = append(out, math.Copysign(a, float64(rng.Intn(2)*2-1)))
		}
		for len(out)%4 != 0 {
			out = append(out, math.Ldexp(1+rng.Float64(), rng.Intn(100)-50))
		}
		for b := 0; b < len(out); b += 4 {
			switch rng.Intn(4) {
			case 0:
				out[b+rng.Intn(4)] = edges[rng.Intn(len(edges))]
			case 1: // near or past the gate's lower bound: quotients can underflow
				out[b+rng.Intn(4)] = math.Ldexp(1+rng.Float64(), -1074+rng.Intn(180))
			case 2: // near or past its upper bound: quotients can overflow
				out[b+rng.Intn(4)] = math.Ldexp(1+rng.Float64(), 890+rng.Intn(134))
			}
		}
		return out
	}
	// Past Adam's divisors, bias corrections outside [2^-100, 2^100], where
	// the kernel must divide: quotients there overflow or underflow.
	divisors := adamDivisors()
	for range 64 {
		divisors = append(divisors, 0x1p-101, 1e-200, 0x1p101, 1e200)
	}
	var p, g, m, v, wantP, wantM, wantV []float64
	lanes := 0
	for i, bc1 := range divisors {
		bc2 := divisors[(i+1)%len(divisors)]
		mDiv, vDiv := dividends(bc1), dividends(bc2)
		p, g, m, v = p[:0], g[:0], m[:0], v[:0]
		for _, a := range mDiv { // m lanes: m̂ = m/bc1, v̂ = bc2/bc2 = 1
			m, v = append(m, a), append(v, bc2)
		}
		for _, a := range vDiv { // v lanes: m̂ = bc1/bc1 = 1, v̂ = v/bc2
			if a < 0 && a != -1.5 {
				a = -a
			}
			m, v = append(m, bc1), append(v, a)
		}
		for range m {
			p, g = append(p, math.Copysign(0, -1)), append(g, math.Copysign(0, -1))
		}
		n := len(m)
		wantP, wantM, wantV = append(wantP[:0], p...), append(wantM[:0], m...), append(wantV[:0], v...)
		c := AdamCoeffs{B1: 1, C1: 0, B2: 1, C2: 0, BC1: bc1, BC2: bc2, LR: 1, Eps: 0, GS: 1}
		adamLoop(wantP, g, wantM, wantV, &c)
		if got := adamStepVec(p, g, m, v, &c, fma); got != n {
			t.Fatalf("adamStepVec covered %d of %d", got, n)
		}
		for _, s := range []struct {
			name      string
			got, want []float64
		}{{"p", p, wantP}, {"m", m, wantM}, {"v", v, wantV}} {
			if j, ok := sameFloats(s.got, s.want); !ok {
				lane, d, block := "m̂", bc1, mDiv
				if j >= len(mDiv) {
					lane, d, block = "v̂", bc2, vDiv
				}
				t.Fatalf("%s lane %d, divisor %v (%#x): %s = %v (%#x), Go loop %v (%#x); the lanes' dividends %v",
					lane, j, d, math.Float64bits(d), s.name, s.got[j], math.Float64bits(s.got[j]), s.want[j], math.Float64bits(s.want[j]), block)
			}
		}
		lanes += n
	}
	t.Logf("%d lanes over %d divisors", lanes, len(divisors))
}

// TestNearMidpointDividends checks nearMidpoint's construction on the
// first 50 Adam divisors: each quotient of significands lies within 7·2^-53 ulp of a
// rounding midpoint, and not on it.
func TestNearMidpointDividends(t *testing.T) {
	checked := 0
	for _, d := range adamDivisors()[:50] {
		sigs := nearMidpoint(d, 3)
		checked += len(sigs)
		b := new(big.Float).SetPrec(300).SetFloat64(math.Float64frombits(math.Float64bits(d)&(1<<52-1) | 1023<<52))
		for _, s := range sigs {
			a := math.Ldexp(float64(s), -52)
			x := new(big.Float).SetPrec(300).SetFloat64(a)
			x.Quo(x, b)
			q, _ := x.Float64()
			lo := q
			if new(big.Float).SetFloat64(q).Cmp(x) > 0 {
				lo = math.Nextafter(q, 0)
			}
			ulp := math.Nextafter(lo, 4) - lo
			dist := new(big.Float).SetPrec(300).SetFloat64(lo)
			dist.Add(dist, big.NewFloat(ulp/2))
			dist.Sub(x, dist)
			rel, _ := dist.Quo(dist.Abs(dist), big.NewFloat(ulp)).Float64()
			if rel > 7*0x1p-53 || rel == 0 {
				t.Fatalf("divisor %v, dividend %v: quotient %v is %g ulp from a midpoint", d, a, q, rel)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d dividends near a midpoint over 50 divisors", checked)
	}
}
