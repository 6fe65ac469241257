package mat

import "fmt"

// Matrix32 is a dense, row-major float32 matrix — the storage type of the
// opt-in reduced-precision backend (see backend.go). It intentionally
// exposes only the surface the float32 compute path needs: construction,
// element access, down-conversion from the float64 Matrix, and the three
// GEMM forms plus the elementwise helpers the fused network pass uses. The
// float64 Matrix remains the package's primary type and the reference
// semantics; float32 results are validated against it by tolerance
// properties, never by bit-exact digests.
//
// The GEMM kernels are the same generic register-tiled routines that power
// the float64 path (gemm.go), stenciled by the compiler for float32, so the
// reduction-order contract carries over: each destination element
// accumulates over k strictly ascending, and results are bit-identical at
// any worker count within the float32 path itself.
type Matrix32 struct {
	rows, cols int
	data       []float32
}

// New32 returns a zeroed rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: New32(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix32{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// Rows reports the number of rows.
func (m *Matrix32) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix32) Cols() int { return m.cols }

// Size reports the total element count.
func (m *Matrix32) Size() int { return len(m.data) }

// At returns the element at row r, column c.
func (m *Matrix32) At(r, c int) float32 { return m.data[r*m.cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix32) Set(r, c int, v float32) { m.data[r*m.cols+c] = v }

// Data exposes the backing slice in row-major order. Mutations are visible
// to the matrix.
func (m *Matrix32) Data() []float32 { return m.data }

// Row returns row r as a slice sharing the matrix's backing storage.
func (m *Matrix32) Row(r int) []float32 { return m.data[r*m.cols : (r+1)*m.cols] }

// Zero clears every element.
func (m *Matrix32) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Scale multiplies every element by s in place.
func (m *Matrix32) Scale(s float32) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// CopyFrom overwrites m with src. Shapes must match.
func (m *Matrix32) CopyFrom(src *Matrix32) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: copy32 %dx%d from %dx%d", ErrShape, m.rows, m.cols, src.rows, src.cols)
	}
	copy(m.data, src.data)
	return nil
}

// SetFrom overwrites m with src down-converted element by element — the
// boundary crossing from the float64 reference world into the float32
// backend (weight refresh, input staging). Shapes must match.
func (m *Matrix32) SetFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: set32 %dx%d from %dx%d", ErrShape, m.rows, m.cols, src.rows, src.cols)
	}
	for i, v := range src.data {
		m.data[i] = float32(v)
	}
	return nil
}

// AddScaled computes m += s·other elementwise. Shapes must match.
func (m *Matrix32) AddScaled(other *Matrix32, s float32) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("%w: addScaled32 %dx%d and %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	for i, v := range other.data {
		m.data[i] += s * v
	}
	return nil
}

// SumRowsTo sums each column across rows into out, which must have length
// Cols.
func (m *Matrix32) SumRowsTo(out []float32) error {
	if len(out) != m.cols {
		return fmt.Errorf("%w: sumRows32 out len %d for %d cols", ErrShape, len(out), m.cols)
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

// checkDst32 validates a float32 destination shape.
func checkDst32(op string, dst *Matrix32, rows, cols int) error {
	if dst == nil {
		return fmt.Errorf("%w: %s nil dst, want %dx%d", ErrShape, op, rows, cols)
	}
	if dst.rows != rows || dst.cols != cols {
		return fmt.Errorf("%w: %s dst %dx%d want %dx%d", ErrShape, op, dst.rows, dst.cols, rows, cols)
	}
	return nil
}

// MulTo32 computes dst = a × b without allocating; the float32 twin of
// MulTo, sharing its kernel, banding, and aliasing rules.
func MulTo32(dst, a, b *Matrix32) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: mul32 %dx%d by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst32("mul32", dst, a.rows, b.cols); err != nil {
		return err
	}
	if flops := a.rows * a.cols * b.cols; serialRows(a.rows, flops) {
		gemmRange(dst.data, dst.cols, a.data, a.cols, b.data, b.cols, 0, a.rows, 0)
	} else {
		parallelRows(a.rows, flops, func(lo, hi int) {
			gemmRange(dst.data, dst.cols, a.data, a.cols, b.data, b.cols, lo, hi, 0)
		})
	}
	return nil
}

// MulTransATo32 computes dst = aᵀ × b without allocating; the float32 twin
// of MulTransATo.
func MulTransATo32(dst, a, b *Matrix32) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: mulTransA32 (%dx%d)T by %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst32("mulTransA32", dst, a.cols, b.cols); err != nil {
		return err
	}
	if flops := a.rows * a.cols * b.cols; serialRows(a.cols, flops) {
		gemmTransARange(dst.data, dst.cols, a.data, a.cols, a.rows, b.data, b.cols, 0, a.cols, 0)
	} else {
		parallelRows(a.cols, flops, func(lo, hi int) {
			gemmTransARange(dst.data, dst.cols, a.data, a.cols, a.rows, b.data, b.cols, lo, hi, 0)
		})
	}
	return nil
}

// MulTransBTo32 computes dst = a × bᵀ without allocating; the float32 twin
// of MulTransBTo.
func MulTransBTo32(dst, a, b *Matrix32) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: mulTransB32 %dx%d by (%dx%d)T", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst32("mulTransB32", dst, a.rows, b.rows); err != nil {
		return err
	}
	if flops := a.rows * a.cols * b.rows; serialRows(a.rows, flops) {
		gemmTransBRange(dst.data, dst.cols, a.data, a.cols, b.data, b.rows, 0, a.rows, 0)
	} else {
		parallelRows(a.rows, flops, func(lo, hi int) {
			gemmTransBRange(dst.data, dst.cols, a.data, a.cols, b.data, b.rows, lo, hi, 0)
		})
	}
	return nil
}
