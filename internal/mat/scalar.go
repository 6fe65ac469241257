package mat

import "math"

// Scalar activation helpers. They live here rather than in nn so the
// layered Activate pass and the fused MLP epilogue share one definition:
// the two execution paths are pinned bit-identical, and a second sigmoid
// written slightly differently would break that silently.

// Sigmoid is the numerically stable logistic function 1/(1+e⁻ᵛ): the
// positive branch avoids overflow in exp, the negative branch avoids
// catastrophic cancellation for large |v|.
func Sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}
