package propcheck

import (
	"math"
	"math/rand"
	"testing"
)

// TestBestResponseProperty checks Eqn. (11) optimality, individual
// rationality, and the internal consistency of the best-response record
// over random nodes and price regimes: free, negative, starvation-level,
// interior, and saturating prices.
func TestBestResponseProperty(t *testing.T) {
	Trials(t, 101, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := RandomNode(rng, trial)
		sat := n.PriceForFreq(n.FreqMax)
		prices := []float64{
			0,
			-Uniform(rng, 0, 1),
			Uniform(rng, 0, 0.2) * sat,   // usually below the reserve
			Uniform(rng, 0.2, 1.2) * sat, // interior and clip boundary
			Uniform(rng, 1.2, 5) * sat,   // box-saturated at FreqMax
		}
		for _, p := range prices {
			if err := CheckBestResponse(n, p); err != nil {
				t.Errorf("trial %d, price %v: %v", trial, p, err)
			}
		}
	})
}

// TestOptimalComputeTimeProperty checks Eqn. (12): when the interior
// optimum lands inside the frequency box, the realized compute time equals
// t^{cmp,*} = 2αω²/p.
func TestOptimalComputeTimeProperty(t *testing.T) {
	Trials(t, 102, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := RandomNode(rng, trial)
		// A price constructed from an in-box frequency makes the interior
		// optimum land exactly there (PriceForFreq inverts Eqn. 11).
		f := Uniform(rng, n.FreqMin, n.FreqMax)
		p := n.PriceForFreq(f)
		resp := n.BestResponse(p)
		if !resp.Participating {
			return // the reserve may still block; CheckBestResponse covers IR
		}
		if !approxEqual(resp.Freq, f, tolExact) {
			t.Fatalf("trial %d: interior optimum %v, want %v", trial, resp.Freq, f)
		}
		w := float64(n.Epochs) * n.CyclesPerBit * n.DataBits
		if got, want := n.ComputeTime(resp.Freq), 2*n.Capacitance*w*w/p; !approxEqual(got, want, tolExact) {
			t.Fatalf("trial %d: compute time %v ≠ 2αω²/p = %v", trial, got, want)
		}
	})
}

// TestMinParticipationPriceProperty checks the participation threshold:
// the bisected price induces participation, a price 0.1%% below it does
// not, and +Inf really means no price up to the cap works.
func TestMinParticipationPriceProperty(t *testing.T) {
	Trials(t, 103, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := RandomNode(rng, trial)
		cap := Uniform(rng, 0.5, 4) * n.PriceForFreq(n.FreqMax)
		pmin := n.MinParticipationPrice(cap)
		if math.IsInf(pmin, 1) {
			if n.BestResponse(cap).Participating {
				t.Fatalf("trial %d: threshold +Inf but cap price %v participates", trial, cap)
			}
			return
		}
		if !n.BestResponse(pmin).Participating {
			t.Fatalf("trial %d: node declines its own threshold price %v", trial, pmin)
		}
		if n.BestResponse(pmin * 0.999).Participating {
			t.Fatalf("trial %d: node participates below the threshold %v", trial, pmin)
		}
	})
}
