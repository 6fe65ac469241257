package mat

import "sync"

// Routing between the amd64 strip kernel and the Go kernels for the
// float64 GEMMs (DESIGN.md §16). The strip kernel computes every whole
// 8-column block of a dst row; the Go kernel computes the remaining
// column tail, and everything off amd64. Both accumulate each element over
// k ascending with one rounding per multiply and per add, so which one
// computes an element never changes its bits.

// stripCols reports how many leading columns of a dcols-wide dst the strip
// kernel computes: the whole 8-column blocks on amd64, none elsewhere.
func stripCols(dcols int) int {
	if !haveStrips {
		return 0
	}
	return dcols &^ 7
}

// stripRow runs gemmStrips over dst[:cols], reading a[k·aStride] and
// b[k·bStride + j] for k < kn, j < cols. It bounds-checks the last element
// of each operand first: the assembly checks nothing.
func stripRow(dst, a []float64, aStride int, b []float64, bStride, kn, cols int, load, skipZero bool) {
	_ = dst[cols-1]
	var ap, bp *float64
	if kn > 0 {
		_ = a[(kn-1)*aStride]
		_ = b[(kn-1)*bStride+cols-1]
		ap, bp = &a[0], &b[0]
	}
	gemmStrips(&dst[0], ap, aStride, bp, bStride, kn, cols, load, skipZero)
}

// mulRange computes rows [lo, hi) of dst = a × b: strips, then the Go
// kernel's column tail.
func mulRange(dst, a, b *Matrix, lo, hi int) {
	s := stripCols(dst.cols)
	for i := lo; i < hi && s > 0; i++ {
		stripRow(dst.data[i*dst.cols:], a.data[i*a.cols:], 1, b.data, b.cols, a.cols, s, false, true)
	}
	gemmRange(dst.data, dst.cols, a.data, a.cols, b.data, b.cols, lo, hi, s)
}

// mulTransARange computes rows [lo, hi) of dst = aᵀ × b. The strips follow
// the Go kernel's gemmKC tiling of k, reloading the running sums from
// dst at each tile after the first.
func mulTransARange(dst, a, b *Matrix, lo, hi int) {
	s := stripCols(dst.cols)
	if a.rows == 0 {
		s = 0 // the Go kernel zeroes an empty reduction
	}
	for k0 := 0; k0 < a.rows && s > 0; k0 += gemmKC {
		kn := min(gemmKC, a.rows-k0)
		for i := lo; i < hi; i++ {
			stripRow(dst.data[i*dst.cols:], a.data[k0*a.cols+i:], a.cols, b.data[k0*b.cols:], b.cols, kn, s, k0 > 0, true)
		}
	}
	gemmTransARange(dst.data, dst.cols, a.data, a.cols, a.rows, b.data, b.cols, lo, hi, s)
}

// mulTransBRange computes rows [lo, hi) of dst = a × bᵀ. bt holds the first
// s rows of b transposed (a.cols × s, see packTransB), so the strips run the
// a × b form over it, without the a == 0 skip the Go transpose-B
// kernel never had.
func mulTransBRange(dst, a, b *Matrix, bt []float64, s, lo, hi int) {
	for i := lo; i < hi && s > 0; i++ {
		stripRow(dst.data[i*dst.cols:], a.data[i*a.cols:], 1, bt, s, a.cols, s, false, false)
	}
	gemmTransBRange(dst.data, dst.cols, a.data, a.cols, b.data, b.rows, lo, hi, s)
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

// packTransB returns the first s rows of b transposed into a recycled
// b.cols × s panel; release it with releasePanel.
func packTransB(b *Matrix, s int) []float64 {
	packs.Lock()
	var bt []float64
	if n := len(packs.free); n > 0 {
		bt = packs.free[n-1]
		packs.free = packs.free[:n-1]
	}
	packs.Unlock()
	if n := b.cols * s; cap(bt) < n {
		bt = make([]float64, n)
	} else {
		bt = bt[:n]
	}
	for j := 0; j < s; j++ {
		for k, v := range b.data[j*b.cols : (j+1)*b.cols] {
			bt[k*s+j] = v
		}
	}
	return bt
}

// releasePanel returns a panel from packTransB to the free list.
func releasePanel(bt []float64) {
	packs.Lock()
	packs.free = append(packs.free, bt)
	packs.Unlock()
}
