//go:build !amd64

package mat

// haveAVX2 is false off amd64: the Go kernels compute everything.
const haveAVX2 = false

// gemmKernel is never called when haveAVX2 is false.
func gemmKernel(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool) {
	panic("mat: AVX2 kernel called without haveAVX2")
}

// adamStep is never called when haveAVX2 is false.
func adamStep(p, grad, m, v *float64, n int, c *AdamCoeffs) {
	panic("mat: AVX2 kernel called without haveAVX2")
}
