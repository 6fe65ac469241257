package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Size() != 12 {
		t.Fatalf("New(3,4) = %dx%d size %d", m.Rows(), m.Cols(), m.Size())
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewNegativeDimensions(t *testing.T) {
	m := New(-1, 5)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("New(-1,5) = %dx%d, want empty", m.Rows(), m.Cols())
	}
}

func TestNewFromData(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6}
	m, err := NewFromData(2, 3, src)
	if err != nil {
		t.Fatalf("NewFromData: %v", err)
	}
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	// The matrix must copy, not alias.
	src[0] = 99
	if got := m.At(0, 0); got != 1 {
		t.Fatalf("matrix aliases caller data: At(0,0) = %v", got)
	}
}

func TestNewFromDataShapeError(t *testing.T) {
	if _, err := NewFromData(2, 3, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("error = %v, want ErrShape", err)
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 42)
	if got := m.At(1, 0); got != 42 {
		t.Fatalf("At(1,0) = %v, want 42", got)
	}
	if got := m.Row(1)[0]; got != 42 {
		t.Fatalf("Row(1)[0] = %v, want 42", got)
	}
}

func TestMul(t *testing.T) {
	a, _ := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := NewFromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := product(t, "MulTo", MulTo, a, b, 2, 2)
	want := []float64{58, 64, 139, 154}
	for i, v := range got.Data() {
		if v != want[i] {
			t.Fatalf("MulTo result[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if err := MulTo(New(2, 3), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("error = %v, want ErrShape", err)
	}
}

func TestMulDstShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	dst := New(3, 3)
	if err := MulTo(dst, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("error = %v, want ErrShape", err)
	}
}

// TestMulTransAgainstExplicitTranspose checks MulTransATo/MulTransBTo
// against MulTo on explicitly transposed operands, over random small shapes plus one
// that spans a whole 8-column block and a column tail. Equality is exact:
// every form accumulates each element over k ascending, so the operand
// layout cannot move a single ULP.
func TestMulTransAgainstExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{19, 23, 17}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)})
	}
	for _, sh := range shapes {
		r, k, c := sh[0], sh[1], sh[2]
		a := New(r, k)
		b := New(r, c) // for MulTransATo: aᵀ(k×r) × b(r×c)
		a.Randomize(rng, 2)
		b.Randomize(rng, 2)

		want := product(t, "MulTo", MulTo, transpose(a), b, k, c)
		got := product(t, "MulTransATo", MulTransATo, a, b, k, c)
		assertIdentical(t, "MulTransATo", got, want)

		// MulTransBTo: a(r×k) × b2ᵀ where b2 is c×k.
		b2 := New(c, k)
		b2.Randomize(rng, 2)
		want2 := product(t, "MulTo", MulTo, a, transpose(b2), r, c)
		got2 := product(t, "MulTransBTo", MulTransBTo, a, b2, r, c)
		assertIdentical(t, "MulTransBTo", got2, want2)
	}
}

func transpose(m *Matrix) *Matrix {
	out := New(m.Cols(), m.Rows())
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

func TestAddRowVector(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{1, 2, 3, 4})
	if err := AddRowVector(m, []float64{10, 20}); err != nil {
		t.Fatalf("AddRowVector: %v", err)
	}
	want := []float64{11, 22, 13, 24}
	for i, v := range m.Data() {
		if v != want[i] {
			t.Fatalf("element %d = %v, want %v", i, v, want[i])
		}
	}
	if err := AddRowVector(m, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short vector error = %v, want ErrShape", err)
	}
}

func TestScaleAddScaledApply(t *testing.T) {
	m, _ := NewFromData(1, 3, []float64{1, 2, 3})
	m.Scale(2)
	if m.At(0, 2) != 6 {
		t.Fatalf("Scale: got %v", m.At(0, 2))
	}
	other, _ := NewFromData(1, 3, []float64{1, 1, 1})
	if err := m.AddScaled(other, 10); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	if m.At(0, 0) != 12 {
		t.Fatalf("AddScaled: got %v", m.At(0, 0))
	}
	if err := ApplyTo(m, m, func(v float64) float64 { return -v }); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	if m.At(0, 0) != -12 {
		t.Fatalf("ApplyTo: got %v", m.At(0, 0))
	}
}

func TestSumRowsTo(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{1, -2, 3, 4})
	sums := []float64{99, 99} // stale contents must be overwritten
	if err := m.SumRowsTo(sums); err != nil {
		t.Fatalf("SumRowsTo: %v", err)
	}
	if sums[0] != 4 || sums[1] != 2 {
		t.Fatalf("SumRowsTo = %v", sums)
	}
}

func TestCopyFrom(t *testing.T) {
	a, _ := NewFromData(1, 2, []float64{1, 2})
	b := New(1, 2)
	if err := b.CopyFrom(a); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if b.At(0, 1) != 2 {
		t.Fatalf("CopyFrom result %v", b.Data())
	}
	c := New(2, 2)
	if err := c.CopyFrom(a); !errors.Is(err, ErrShape) {
		t.Fatalf("error = %v, want ErrShape", err)
	}
}

func TestRandomizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(10, 10)
	m.Randomize(rng, 0.5)
	for _, v := range m.Data() {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("Randomize produced %v outside [-0.5,0.5)", v)
		}
	}
}

func TestInitializersProduceFiniteValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(8, 8)
	m.XavierInit(rng, 8, 8)
	for _, v := range m.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("XavierInit produced %v", v)
		}
	}
}

// Property: matrix multiplication distributes over addition:
// a×(b+c) == a×b + a×c.
func TestMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(5)
		a := New(n, m)
		b := New(m, n)
		c := New(m, n)
		a.Randomize(r, 1)
		b.Randomize(r, 1)
		c.Randomize(r, 1)
		bc := New(m, n)
		_ = bc.CopyFrom(b)
		_ = bc.AddScaled(c, 1)
		left, ab, ac := New(n, n), New(n, n), New(n, n)
		_ = MulTo(left, a, bc)
		_ = MulTo(ab, a, b)
		_ = MulTo(ac, a, c)
		right := ab
		_ = right.AddScaled(ac, 1)
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
