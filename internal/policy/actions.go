// Package policy is the shared agent stack of the reproduction: composable
// observation encoders that turn environment state into network inputs, and
// action heads that turn unbounded pre-squash network outputs into feasible
// environment actions (price vectors). Every mechanism — Chiron's
// hierarchical pair, the DRL-based baseline, Greedy's replay strategy, and
// the static references — assembles its decision path from these parts, so
// adding a mechanism means composing encoders and heads, not re-implementing
// state layout or action squashing.
package policy

import (
	"fmt"
	"math"

	"chiron/internal/mat"
)

// Squash maps an unbounded pre-squash value into (lo, hi) via a sigmoid —
// the bounded-action transform of the per-node price heads.
func Squash(u, lo, hi float64) float64 {
	return lo + (hi-lo)/(1+math.Exp(-u))
}

// LogSquash maps an unbounded pre-squash value into [lo, hi] on a
// logarithmic scale: u=0 lands on the geometric mean √(lo·hi). Prices span
// orders of magnitude, so the log parametrization gives the policy equal
// resolution across the whole range and starts exploration near the middle
// of the *multiplicative* range instead of half the maximum. lo must be
// positive.
func LogSquash(u, lo, hi float64) float64 {
	logLo, logHi := math.Log(lo), math.Log(hi)
	return math.Exp(logLo + (logHi-logLo)/(1+math.Exp(-u)))
}

// SquashVec applies Squash elementwise, returning a new slice.
func SquashVec(u []float64, lo, hi float64) []float64 {
	out := make([]float64, len(u))
	SquashVecTo(out, u, lo, hi)
	return out
}

// SquashVecTo applies Squash elementwise into dst (length len(u)) — the
// destination-passing form hot rollout loops use to keep per-round action
// transforms allocation-free at fleet scale.
func SquashVecTo(dst, u []float64, lo, hi float64) error {
	if len(dst) != len(u) {
		return fmt.Errorf("policy: squash dst len %d, src len %d", len(dst), len(u))
	}
	for i, v := range u {
		dst[i] = Squash(v, lo, hi)
	}
	return nil
}

// SimplexProject maps an unbounded pre-squash vector onto the probability
// simplex via softmax — the transform behind the Eqn. 13 allocation
// proportions.
func SimplexProject(u []float64) ([]float64, error) {
	out, err := mat.Softmax(nil, u)
	if err != nil {
		return nil, fmt.Errorf("policy: simplex project: %w", err)
	}
	return out, nil
}
