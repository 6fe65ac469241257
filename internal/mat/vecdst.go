package mat

import "fmt"

// Destination-passing vector kernels, the flat-slice counterparts of the
// *To matrix kernels in dst.go: every function writes its full result into
// a caller-supplied dst and allocates nothing, so hot loops can stream
// node-axis columns through them with EnsureVec-managed buffers. dst may
// alias the operand — the kernels are elementwise with dst[i] depending
// only on operand element i.
//
// The arithmetic is deliberately the plain scalar expression per element
// (no reciprocal-multiply or reassociation tricks), so a batched pass over
// a column is bit-identical to the per-element scalar code it replaces.

// checkVecDst validates that dst and every operand share one length.
func checkVecDst(op string, dst []float64, operands ...[]float64) error {
	for _, v := range operands {
		if len(v) != len(dst) {
			return fmt.Errorf("%w: %s dst len %d, operand len %d", ErrShape, op, len(dst), len(v))
		}
	}
	return nil
}

// DivScalarVecTo computes dst[i] = src[i]/s — a true per-element division,
// not a multiply by 1/s, so results match scalar code dividing element by
// element to the last ULP.
func DivScalarVecTo(dst, src []float64, s float64) error {
	if err := checkVecDst("divScalarVec", dst, src); err != nil {
		return err
	}
	for i, v := range src {
		dst[i] = v / s
	}
	return nil
}

// FillVec sets every element of dst to s.
func FillVec(dst []float64, s float64) {
	for i := range dst {
		dst[i] = s
	}
}
