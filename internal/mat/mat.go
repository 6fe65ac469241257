// Package mat provides the dense float64 matrix and vector kernels used by
// the neural-network, reinforcement-learning, and federated-learning layers
// of the Chiron reproduction. It is deliberately small: row-major dense
// matrices, the handful of BLAS-like routines the upper layers need, and
// deterministic random initialization driven by an explicit *rand.Rand.
//
// The compute core is destination-passing: the *To kernels (MulTo,
// ApplyTo, ...) write into caller-supplied matrices and allocate nothing,
// and Ensure/EnsureVec let hot loops keep one scratch buffer per role
// across passes. Large GEMMs are row-blocked across a bounded worker pool
// (SetWorkers; default GOMAXPROCS) with a fixed per-element reduction
// order, so results are bit-identical at any parallelism.
package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrShape is returned (wrapped) by operations whose operands have
// incompatible dimensions.
var ErrShape = errors.New("mat: shape mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix; use New or NewFromData to construct a
// usable one. Methods never retain caller-provided slices unless documented.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromData returns a rows×cols matrix backed by a copy of data.
// It returns an error if len(data) != rows*cols.
func NewFromData(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d matrix", ErrShape, len(data), rows, cols)
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	return &Matrix{rows: rows, cols: cols, data: cp}, nil
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size reports the total number of elements.
func (m *Matrix) Size() int { return len(m.data) }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.data[r*m.cols+c] }

// Set assigns v to the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.data[r*m.cols+c] = v }

// Data exposes the underlying row-major backing slice.
//
// Aliasing contract: the returned slice IS the matrix storage — mutating it
// mutates the matrix, and any other view obtained from Data or Row of the
// same matrix observes the change immediately. Holding a returned slice
// across an operation that writes the matrix (a *To kernel targeting it, an
// optimizer step, a reused layer buffer) reads the new values, not a
// snapshot. Callers that need isolation must copy.
func (m *Matrix) Data() []float64 { return m.data }

// Row returns a view of row r (shared backing array). The aliasing contract
// of Data applies: the view stays live, so mutations through the matrix are
// visible in the slice and vice versa.
func (m *Matrix) Row(r int) []float64 { return m.data[r*m.cols : (r+1)*m.cols] }

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// CopyFrom copies src into m. The shapes must match exactly.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: copy %dx%d into %dx%d", ErrShape, src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Randomize fills m with uniform values in [-scale, scale) drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m using Glorot/Xavier uniform initialization for a layer
// with the given fan-in and fan-out.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

// AddRowVector adds vector v to every row of m in place.
func AddRowVector(m *Matrix, v []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("%w: row vector len %d for %d cols", ErrShape, len(v), m.cols)
	}
	addRows(m.data, m.cols, v, 0, m.rows, m.cols)
	return nil
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	ScaleVec(m.data, s)
}

// AddScaled performs m += s·other in place (axpy).
func (m *Matrix) AddScaled(other *Matrix, s float64) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("%w: addScaled %dx%d and %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	axpy(m.data, other.data, s)
	return nil
}
