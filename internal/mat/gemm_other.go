//go:build !amd64

package mat

// haveAVX2 is false off amd64: the Go kernels compute everything.
const haveAVX2 = false

// haveAVX512 is false off amd64.
const haveAVX512 = false

// gemmKernel is never called when haveAVX2 is false.
func gemmKernel(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool) {
	panic("mat: AVX2 kernel called without haveAVX2")
}

// gemmKernel512 is never called when haveAVX512 is false.
func gemmKernel512(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool) {
	panic("mat: AVX-512 kernel called without haveAVX512")
}

// adamStep is never called when haveAVX2 is false.
func adamStep(p, grad, m, v *float64, n int, c *AdamCoeffs) {
	panic("mat: AVX2 kernel called without haveAVX2")
}
