package mat

import (
	"errors"
	"math/rand"
	"testing"
)

// TestToKernelsMatchAllocatingForms checks every destination-passing kernel
// against its allocating wrapper over random shapes — the two paths must be
// bit-identical, not merely close.
func TestToKernelsMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		r, k, c := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a := New(r, k)
		b := New(k, c)
		a.Randomize(rng, 2)
		b.Randomize(rng, 2)

		want, err := Mul(nil, a, b)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		dst := New(r, c)
		dst.Fill(999) // stale contents must be fully overwritten
		if err := MulTo(dst, a, b); err != nil {
			t.Fatalf("MulTo: %v", err)
		}
		assertIdentical(t, "MulTo", dst, want)

		at := transpose(a)
		wantTA, err := MulTransA(nil, at, b)
		if err != nil {
			t.Fatalf("MulTransA: %v", err)
		}
		dstTA := New(r, c)
		dstTA.Fill(999)
		if err := MulTransATo(dstTA, at, b); err != nil {
			t.Fatalf("MulTransATo: %v", err)
		}
		assertIdentical(t, "MulTransATo", dstTA, wantTA)

		bt := transpose(b)
		wantTB, err := MulTransB(nil, a, bt)
		if err != nil {
			t.Fatalf("MulTransB: %v", err)
		}
		dstTB := New(r, c)
		dstTB.Fill(999)
		if err := MulTransBTo(dstTB, a, bt); err != nil {
			t.Fatalf("MulTransBTo: %v", err)
		}
		assertIdentical(t, "MulTransBTo", dstTB, wantTB)
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
	b, _ := NewFromData(2, 2, []float64{10, 20, 30, 40})
	dst := New(2, 2)
	if err := AddTo(dst, a, b); err != nil {
		t.Fatalf("AddTo: %v", err)
	}
	if dst.At(1, 1) != 44 {
		t.Fatalf("AddTo = %v", dst.Data())
	}
	if err := SubTo(dst, b, a); err != nil {
		t.Fatalf("SubTo: %v", err)
	}
	if dst.At(0, 0) != 9 {
		t.Fatalf("SubTo = %v", dst.Data())
	}
	if err := ScaleTo(dst, a, 3); err != nil {
		t.Fatalf("ScaleTo: %v", err)
	}
	if dst.At(1, 0) != 9 {
		t.Fatalf("ScaleTo = %v", dst.Data())
	}
	if err := ApplyTo(dst, a, func(v float64) float64 { return -v }); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	if dst.At(0, 1) != -2 {
		t.Fatalf("ApplyTo = %v", dst.Data())
	}
	// Aliased destination is allowed for the elementwise kernels.
	if err := AddTo(a, a, b); err != nil {
		t.Fatalf("aliased AddTo: %v", err)
	}
	if a.At(0, 0) != 11 {
		t.Fatalf("aliased AddTo = %v", a.Data())
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
	if err := AddTo(New(2, 3), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("AddTo error = %v, want ErrShape", err)
	}
	if err := New(2, 3).SumRowsTo(make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("SumRowsTo error = %v, want ErrShape", err)
	}
}

// TestParallelGEMMBitIdentical runs the three GEMM kernels at several worker
// counts on shapes large enough to cross the parallel threshold and demands
// bit-identical results — the determinism contract of the row-blocked pool.
func TestParallelGEMMBitIdentical(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(2))
	a := New(97, 61)
	b := New(61, 53)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	at := transpose(a)
	bt := transpose(b)

	SetWorkers(1)
	m1, err := Mul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ta1, err := MulTransA(nil, at, b)
	if err != nil {
		t.Fatal(err)
	}
	tb1, err := MulTransB(nil, a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 7} {
		SetWorkers(workers)
		m, err := Mul(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Mul", m, m1)
		ta, err := MulTransA(nil, at, b)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "MulTransA", ta, ta1)
		tb, err := MulTransB(nil, a, bt)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "MulTransB", tb, tb1)
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

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(3, 4)
	if m1.Rows() != 3 || m1.Cols() != 4 {
		t.Fatalf("Get(3,4) = %dx%d", m1.Rows(), m1.Cols())
	}
	ws.Put(m1)
	m2 := ws.Get(3, 4)
	if m2 != m1 {
		t.Fatal("workspace did not recycle the returned matrix")
	}
	if m3 := ws.Get(3, 4); m3 == m2 {
		t.Fatal("workspace handed out a checked-out matrix twice")
	}
	v1 := ws.GetVec(5)
	ws.PutVec(v1)
	v2 := ws.GetVec(5)
	if &v1[0] != &v2[0] {
		t.Fatal("workspace did not recycle the returned vector")
	}
	ws.Put(nil)      // must not panic
	ws.PutVec(nil)   // must not panic
	_ = ws.Get(0, 0) // degenerate shapes are fine
}

func TestCopyDataCopyRowIsolation(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{1, 2, 3, 4})
	d := m.CopyData()
	r := m.CopyRow(1)
	m.Set(0, 0, 99)
	m.Set(1, 0, 99)
	if d[0] != 1 || r[0] != 3 {
		t.Fatalf("copies alias the matrix: data %v row %v", d, r)
	}
	// And the documented live views do alias.
	if m.Data()[0] != 99 || m.Row(1)[0] != 99 {
		t.Fatal("Data/Row must remain live views")
	}
}
