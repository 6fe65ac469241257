package mat

import "sync"

// Routing between the amd64 assembly kernels and the Go kernels for the
// float64 GEMMs (DESIGN.md §16). With AVX2 MulTo, MulTransATo and
// MulTransBTo run an assembly kernel over every column of every dst row,
// four rows per call: gemmKernel512 when the CPU also has AVX-512F,
// gemmKernel otherwise. Without AVX2, and off amd64, the Go kernels do.
// All of them accumulate each element over k ascending with one rounding
// per multiply and per add, so which one computes an element never changes
// its bits.

// kernelFunc is the signature of the assembly GEMM kernels (gemmKernel's
// contract in gemm_amd64.go).
type kernelFunc func(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool)

// gemmSIMD is the kernel the GEMMs run, chosen once at package init by the
// CPU alone; nil means the Go kernels.
var gemmSIMD = simdKernel()

func simdKernel() kernelFunc {
	switch {
	case haveAVX512:
		return gemmKernel512
	case haveAVX2:
		return gemmKernel
	}
	return nil
}

// kernelRows runs kern over n ≤ 4 dst rows, reading row r's
// a[r·aRowStride + k·aStride] and b[k·bStride + j] for k < kn, j < cols. It
// bounds-checks the last element of each operand first: the assembly checks
// nothing.
func kernelRows(kern kernelFunc, dst []float64, dstStride int, a []float64, aRowStride, aStride int, b []float64, bStride, kn, cols, n int, load, skipZero bool) {
	_ = dst[(n-1)*dstStride+cols-1]
	var ap, bp *float64
	if kn > 0 {
		_ = a[(n-1)*aRowStride+(kn-1)*aStride]
		_ = b[(kn-1)*bStride+cols-1]
		ap, bp = &a[0], &b[0]
	}
	kern(&dst[0], dstStride, ap, aRowStride, aStride, bp, bStride, kn, cols, n, load, skipZero)
}

// packs recycles the transposed panels MulTransBTo packs. It is a
// mutex-guarded free list rather than a sync.Pool because a pool may drop
// its entries at any collection (and at random under the race detector),
// which would make an otherwise allocation-free training step allocate.
// It holds at most one panel per concurrent MulTransBTo caller.
var packs struct {
	sync.Mutex
	free [][]float64
}

// packTransB returns b transposed into a recycled b.cols × b.rows panel;
// release it with releasePanel.
func packTransB(b *Matrix) []float64 {
	packs.Lock()
	var bt []float64
	if n := len(packs.free); n > 0 {
		bt = packs.free[n-1]
		packs.free = packs.free[:n-1]
	}
	packs.Unlock()
	if n := b.cols * b.rows; cap(bt) < n {
		bt = make([]float64, n)
	} else {
		bt = bt[:n]
	}
	transposeTo(bt, b.data, b.rows, b.cols)
	return bt
}

// transposeTo writes the rows × cols matrix src, transposed, into dst.
// With AVX2 transposeKernel moves the leading rows and columns that are
// multiples of 4 in 4×4 blocks, and transposeLoop the edges; without it
// transposeLoop moves everything. Either way every element is copied, so
// the bits are the same.
func transposeTo(dst, src []float64, rows, cols int) {
	r4, c4 := 0, 0
	if haveAVX2 && rows >= 4 && cols >= 4 {
		r4, c4 = rows&^3, cols&^3
		_, _ = src[(r4-1)*cols+c4-1], dst[(c4-1)*rows+r4-1]
		transposeKernel(&dst[0], rows, &src[0], cols, r4, c4)
	}
	transposeLoop(dst, src, rows, cols, 0, r4, c4)
	transposeLoop(dst, src, rows, cols, r4, rows, 0)
}

// transposeLoop is transposeTo over src rows [j0, j1) and columns [k0, cols),
// one element at a time, and the oracle the kernel is tested against.
func transposeLoop(dst, src []float64, rows, cols, j0, j1, k0 int) {
	for j := j0; j < j1; j++ {
		for k, v := range src[j*cols+k0 : (j+1)*cols] {
			dst[(k0+k)*rows+j] = v
		}
	}
}

// releasePanel returns a panel from packTransB to the free list.
func releasePanel(bt []float64) {
	packs.Lock()
	packs.free = append(packs.free, bt)
	packs.Unlock()
}
