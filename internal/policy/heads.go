package policy

import (
	"fmt"

	"chiron/internal/mat"
)

// BoundedScalarHead maps a one-dimensional pre-squash action to a total
// price in [Lo, Hi] on a log scale — the Eqn. 13 exterior head. Lo must be
// positive (see LogSquash).
type BoundedScalarHead struct {
	Lo, Hi float64
}

// Total maps the pre-squash action to the round's total price p_total,k.
func (h BoundedScalarHead) Total(u float64) float64 {
	return LogSquash(u, h.Lo, h.Hi)
}

// SimplexHead maps a pre-squash action vector to allocation proportions on
// the simplex and scales them by a total price — the Eqn. 13 inner head:
// p_{i,k} = a^E_k · a^I_{i,k}.
type SimplexHead struct{}

// Proportions projects the pre-squash vector onto the simplex.
func (SimplexHead) Proportions(u []float64) ([]float64, error) {
	return SimplexProject(u)
}

// Prices decomposes a total price across nodes via the simplex projection.
func (h SimplexHead) Prices(total float64, u []float64) ([]float64, error) {
	props, err := h.Proportions(u)
	if err != nil {
		return nil, err
	}
	for i, pr := range props {
		props[i] = total * pr
	}
	return props, nil
}

// PricesTo is Prices writing into a caller-supplied dst (length len(u));
// dst may alias u. The arithmetic matches Prices element for element
// (softmax then total·proportion), so reusing a price buffer across rounds
// changes nothing but the allocation count.
func (h SimplexHead) PricesTo(dst []float64, total float64, u []float64) error {
	if err := SimplexProjectTo(dst, u); err != nil {
		return err
	}
	for i, pr := range dst {
		dst[i] = total * pr
	}
	return nil
}

// BoundedVectorHead maps each pre-squash component independently into
// [Lo, Hi] — the DRL-based baseline's per-node price head, whose action
// square covers the same feasible region as the total-price simplex.
type BoundedVectorHead struct {
	Lo, Hi float64
}

// Prices maps the pre-squash vector to per-node prices.
func (h BoundedVectorHead) Prices(u []float64) []float64 {
	return SquashVec(u, h.Lo, h.Hi)
}

// PricesTo is Prices writing into a caller-supplied dst (length len(u));
// dst may alias u. It allocates nothing.
func (h BoundedVectorHead) PricesTo(dst, u []float64) error {
	return SquashVecTo(dst, u, h.Lo, h.Hi)
}

// StaticHead posts the same price vector every round — the head behind the
// static references (Uniform, EqualTime), which run through the same driver
// as the learners but have no pre-squash action to transform.
type StaticHead struct {
	prices []float64
}

// NewStaticHead fixes the head's price vector (cloned).
func NewStaticHead(prices []float64) (*StaticHead, error) {
	if len(prices) == 0 {
		return nil, fmt.Errorf("policy: static head with no prices")
	}
	return &StaticHead{prices: mat.CloneVec(prices)}, nil
}

// Prices returns the fixed vector. Callers must not mutate it.
func (h *StaticHead) Prices() []float64 { return h.prices }
