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

// MulTo computes dst = a × b without allocating, on the calling goroutine.
// dst must be a.Rows()×b.Cols() and must not alias a or b.
func MulTo(dst, a, b *Matrix) error { return mulTo(gemmSIMD, dst, a, b) }

// mulTo is MulTo on the assembly kernel kern, or on the Go kernel when kern
// is nil.
func mulTo(kern kernelFunc, dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: mul %dx%d by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mul", dst, a.rows, b.cols); err != nil {
		return err
	}
	if kern == nil || dst.cols == 0 {
		gemm(dst.data, dst.cols, a.data, a.cols, b.data, b.cols, a.rows)
		return nil
	}
	for i := 0; i < a.rows; i += 4 {
		kernelRows(kern, dst.data[i*dst.cols:], dst.cols, a.data[i*a.cols:], a.cols, 1, b.data, b.cols, a.cols, dst.cols, min(4, a.rows-i), false, true)
	}
	return nil
}

// MulTransATo computes dst = aᵀ × b without allocating, on the calling
// goroutine. dst must be a.Cols()×b.Cols() and must not alias a or b. dst
// row i reads column i of a, so four rows read four adjacent a values per
// k; the kernel follows the Go kernel's gemmKC tiling of k, reloading the
// running sums from dst at each tile after the first.
func MulTransATo(dst, a, b *Matrix) error { return mulTransATo(gemmSIMD, dst, a, b) }

// mulTransATo is MulTransATo on the assembly kernel kern, or on the Go
// kernel when kern is nil.
func mulTransATo(kern kernelFunc, dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: mulTransA (%dx%d)T by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mulTransA", dst, a.cols, b.cols); err != nil {
		return err
	}
	if kern == nil || dst.cols == 0 || a.rows == 0 {
		gemmTransA(dst.data, dst.cols, a.data, a.cols, a.rows, b.data, b.cols, a.cols)
		return nil
	}
	for k0 := 0; k0 < a.rows; k0 += gemmKC {
		kn := min(gemmKC, a.rows-k0)
		for i := 0; i < a.cols; i += 4 {
			kernelRows(kern, dst.data[i*dst.cols:], dst.cols, a.data[k0*a.cols+i:], 1, a.cols, b.data[k0*b.cols:], b.cols, kn, dst.cols, min(4, a.cols-i), k0 > 0, true)
		}
	}
	return nil
}

// MulTransBTo computes dst = a × bᵀ without allocating in steady state, on
// the calling goroutine: with AVX2 it packs bᵀ into a recycled panel and
// runs the a × b form of the kernel over it, without the a == 0 skip the Go
// transpose-B kernel never had. dst must be a.Rows()×b.Rows() and must not
// alias a or b.
func MulTransBTo(dst, a, b *Matrix) error { return mulTransBTo(gemmSIMD, dst, a, b) }

// mulTransBTo is MulTransBTo on the assembly kernel kern, or on the Go
// kernel when kern is nil.
func mulTransBTo(kern kernelFunc, dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: mulTransB %dx%d by (%dx%d)T", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst("mulTransB", dst, a.rows, b.rows); err != nil {
		return err
	}
	if kern == nil || b.rows == 0 {
		gemmTransB(dst.data, dst.cols, a.data, a.cols, b.data, b.rows, a.rows)
		return nil
	}
	bt := packTransB(b)
	for i := 0; i < a.rows; i += 4 {
		kernelRows(kern, dst.data[i*dst.cols:], dst.cols, a.data[i*a.cols:], a.cols, 1, bt, b.rows, a.cols, b.rows, min(4, a.rows-i), false, false)
	}
	releasePanel(bt)
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
	clear(out)
	addRows(out, 0, m.data, m.cols, m.rows, m.cols)
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
