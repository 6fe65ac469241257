package mat

import "fmt"

// Destination-passing forms of the package's kernels: every *To function
// writes its result into a caller-supplied dst and allocates nothing.
//
// dst must not alias any operand unless a function documents otherwise; the
// GEMM kernels read operand rows while streaming writes into dst rows, so
// an aliased destination would corrupt its own inputs mid-computation.

// checkDst validates a destination shape against the required dimensions.
func checkDst(op string, dst *Matrix, rows, cols int) error {
	if dst == nil {
		return fmt.Errorf("%w: %s nil dst, want %dx%d", ErrShape, op, rows, cols)
	}
	if dst.rows != rows || dst.cols != cols {
		return fmt.Errorf("%w: %s dst %dx%d want %dx%d", ErrShape, op, dst.rows, dst.cols, rows, cols)
	}
	return nil
}

// MulTo computes dst = a × b without allocating. dst must be a.Rows()×
// b.Cols() and must not alias a or b. Large products are row-blocked over
// the worker pool; results are bit-identical at any worker count.
func MulTo(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: mul %dx%d by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mul", dst, a.rows, b.cols); err != nil {
		return err
	}
	if flops := a.rows * a.cols * b.cols; serialRows(a.rows, flops) {
		mulRange(dst, a, b, 0, a.rows)
	} else {
		parallelRows(a.rows, flops, a.rows, func(_, lo, hi int) { mulRange(dst, a, b, lo, hi) })
	}
	return nil
}

// MulTransATo computes dst = aᵀ × b without allocating. dst must be
// a.Cols()×b.Cols() and must not alias a or b.
func MulTransATo(dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: mulTransA (%dx%d)T by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mulTransA", dst, a.cols, b.cols); err != nil {
		return err
	}
	if flops := a.rows * a.cols * b.cols; serialRows(a.cols, flops) {
		mulTransARange(dst, a, b, 0, a.cols)
	} else {
		parallelRows(a.cols, flops, a.cols, func(_, lo, hi int) { mulTransARange(dst, a, b, lo, hi) })
	}
	return nil
}

// MulTransBTo computes dst = a × bᵀ without allocating in steady state:
// with AVX2 it packs bᵀ into a recycled panel for the assembly kernel. dst must
// be a.Rows()×b.Rows() and must not alias a or b.
func MulTransBTo(dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: mulTransB %dx%d by (%dx%d)T", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mulTransB", dst, a.rows, b.rows); err != nil {
		return err
	}
	var bt []float64
	if haveAVX2 && b.rows > 0 {
		bt = packTransB(b)
		defer releasePanel(bt)
	}
	if flops := a.rows * a.cols * b.rows; serialRows(a.rows, flops) {
		mulTransBRange(dst, a, b, bt, 0, a.rows)
	} else {
		parallelRows(a.rows, flops, a.rows, func(_, lo, hi int) { mulTransBRange(dst, a, b, bt, lo, hi) })
	}
	return nil
}

// ApplyTo computes dst[i] = f(a[i]) elementwise without allocating. dst may
// alias a.
func ApplyTo(dst, a *Matrix, f func(float64) float64) error {
	if err := checkDst("apply", dst, a.rows, a.cols); err != nil {
		return err
	}
	for i, v := range a.data {
		dst.data[i] = f(v)
	}
	return nil
}

// SumRowsTo sums each column across rows into out, which must have length
// Cols.
func (m *Matrix) SumRowsTo(out []float64) error {
	if len(out) != m.cols {
		return fmt.Errorf("%w: sumRows out len %d for %d cols", ErrShape, len(out), m.cols)
	}
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < m.rows; r++ {
		row := m.data[r*m.cols : (r+1)*m.cols]
		for c, v := range row {
			out[c] += v
		}
	}
	return nil
}

// Ensure returns m when it already has the requested shape and a freshly
// allocated rows×cols matrix otherwise, for code that keeps one long-lived
// scratch buffer per role: contents are unspecified, so callers must fully
// overwrite (every *To kernel does) or Zero first.
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.rows == rows && m.cols == cols {
		return m
	}
	return New(rows, cols)
}

// EnsureVec is Ensure for flat slices: it returns v when len(v) == n and a
// new slice otherwise, with unspecified contents.
func EnsureVec(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}
