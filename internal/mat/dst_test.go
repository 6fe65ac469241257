package mat

import (
	"errors"
	"math/rand"
	"testing"
)

// gemmForm is one destination-passing GEMM kernel.
type gemmForm func(dst, a, b *Matrix) error

// product runs form into a fresh zeroed rows×cols destination.
func product(t *testing.T, op string, form gemmForm, a, b *Matrix, rows, cols int) *Matrix {
	t.Helper()
	dst := New(rows, cols)
	if err := form(dst, a, b); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return dst
}

// TestToKernelsMatchAllocatingForms checks every GEMM kernel over random
// shapes: writing into a destination full of stale values must give the
// same bits as the allocating form, the kernel run into a freshly
// allocated destination (product).
func TestToKernelsMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		r, k, c := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a := New(r, k)
		b := New(k, c)
		a.Randomize(rng, 2)
		b.Randomize(rng, 2)
		at, bt := transpose(a), transpose(b)
		for _, tc := range []struct {
			op   string
			form gemmForm
			a, b *Matrix
		}{
			{"MulTo", MulTo, a, b},
			{"MulTransATo", MulTransATo, at, b},
			{"MulTransBTo", MulTransBTo, a, bt},
		} {
			want := product(t, tc.op, tc.form, tc.a, tc.b, r, c)
			dst := New(r, c)
			dst.Fill(999) // stale contents must be fully overwritten
			if err := tc.form(dst, tc.a, tc.b); err != nil {
				t.Fatalf("%s: %v", tc.op, err)
			}
			assertIdentical(t, tc.op, dst, want)
		}
	}
}

func assertIdentical(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-identical)", op, i, g[i], w[i])
		}
	}
}

func TestElementwiseToKernels(t *testing.T) {
	a, _ := NewFromData(2, 2, []float64{1, 2, 3, 4})
	dst := New(2, 2)
	if err := ApplyTo(dst, a, func(v float64) float64 { return -v }); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	if dst.At(0, 1) != -2 {
		t.Fatalf("ApplyTo = %v", dst.Data())
	}
	// Aliased destination is allowed for the elementwise kernels.
	if err := ApplyTo(a, a, func(v float64) float64 { return 2 * v }); err != nil {
		t.Fatalf("aliased ApplyTo: %v", err)
	}
	if a.At(1, 1) != 8 {
		t.Fatalf("aliased ApplyTo = %v", a.Data())
	}
}

func TestToKernelShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	if err := MulTo(nil, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("nil dst error = %v, want ErrShape", err)
	}
	if err := MulTo(New(3, 3), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("bad dst error = %v, want ErrShape", err)
	}
	if err := MulTo(New(2, 2), a, New(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("operand error = %v, want ErrShape", err)
	}
	if err := ApplyTo(New(3, 2), a, func(v float64) float64 { return v }); !errors.Is(err, ErrShape) {
		t.Fatalf("ApplyTo error = %v, want ErrShape", err)
	}
	if err := New(2, 3).SumRowsTo(make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("SumRowsTo error = %v, want ErrShape", err)
	}
}

// TestGEMMAllocatesNothing pins that the three GEMMs make no per-call
// allocation, even with several workers configured.
func TestGEMMAllocatesNothing(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	const n = 64
	rng := rand.New(rand.NewSource(4))
	a, b, dst := New(n, n), New(n, n), New(n, n)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	for _, tc := range []struct {
		op   string
		form gemmForm
	}{
		{"MulTo", MulTo},
		{"MulTransATo", MulTransATo},
		{"MulTransBTo", MulTransBTo},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.form(dst, a, b); err != nil {
				t.Fatalf("%s: %v", tc.op, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s 64x64x64 at 4 workers: %v allocs per call, want 0", tc.op, allocs)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", got)
	}
}
