package mat

import "math"

// Elementwise kernels of the fused MLP (DESIGN.md §16). With AVX2 each op
// runs its amd64 kernel over the leading multiple of 4 elements (for
// addRows, columns) and its Go loop over the rest; without AVX2, and off
// amd64, the Go loop does everything. A kernel does per element exactly
// the Go loop's floating-point operations, so which one computes an
// element never changes its bits. The Go loops are also the tests' oracles.

// TanhVec sets every element of v to math.Tanh of it.
func TanhVec(v []float64) {
	n := 0
	if haveTanhKernel && len(v) >= 4 {
		n = len(v) &^ 3
		tanhKernel(&v[0], n)
	}
	tanhLoop(v[n:])
}

func tanhLoop(v []float64) {
	for i, x := range v {
		v[i] = math.Tanh(x)
	}
}

// TanhGradTo sets dst[i] = g[i]·(1 − y[i]·y[i]): the gradient g chained
// through tanh, given its outputs y. g and y must be at least as long as
// dst.
func TanhGradTo(dst, g, y []float64) {
	g, y = g[:len(dst)], y[:len(dst)]
	n := 0
	if haveAVX2 && len(dst) >= 4 {
		n = len(dst) &^ 3
		tanhGradKernel(&dst[0], &g[0], &y[0], n)
	}
	tanhGradLoop(dst[n:], g[n:], y[n:])
}

func tanhGradLoop(dst, g, y []float64) {
	for i, yv := range y {
		dst[i] = g[i] * (1 - yv*yv)
	}
}

// addRows adds src[r·srcStride + j] into dst[r·dstStride + j] for r < rows
// and j < cols, rows in ascending order. A zero stride reuses one row: a
// zero srcStride adds a row vector to every dst row, a zero dstStride sums
// the src rows.
func addRows(dst []float64, dstStride int, src []float64, srcStride, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	n := 0
	if haveAVX2 && cols >= 4 {
		n = cols &^ 3
		_, _ = dst[(rows-1)*dstStride+cols-1], src[(rows-1)*srcStride+cols-1]
		addRowsKernel(&dst[0], dstStride, &src[0], srcStride, rows, n)
	}
	addRowsLoop(dst, dstStride, src, srcStride, rows, n, cols)
}

// addRowsLoop is addRows over columns [lo, cols).
func addRowsLoop(dst []float64, dstStride int, src []float64, srcStride, rows, lo, cols int) {
	for r := 0; r < rows; r++ {
		d := dst[r*dstStride+lo : r*dstStride+cols]
		for j, v := range src[r*srcStride+lo : r*srcStride+cols] {
			d[j] += v
		}
	}
}

// axpy sets dst[i] += s·src[i]; src must be at least as long as dst.
func axpy(dst, src []float64, s float64) {
	src = src[:len(dst)]
	n := 0
	if haveAVX2 && len(dst) >= 4 {
		n = len(dst) &^ 3
		axpyKernel(&dst[0], &src[0], s, n)
	}
	axpyLoop(dst[n:], src[n:], s)
}

func axpyLoop(dst, src []float64, s float64) {
	for i, v := range src {
		dst[i] += s * v
	}
}

// ScaleVec multiplies every element of v by s in place.
func ScaleVec(v []float64, s float64) {
	n := 0
	if haveAVX2 && len(v) >= 4 {
		n = len(v) &^ 3
		scaleKernel(&v[0], s, n)
	}
	scaleLoop(v[n:], s)
}

func scaleLoop(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
