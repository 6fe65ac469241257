//go:build !amd64

package mat

// haveStrips is false off amd64: the Go kernels compute every
// column.
const haveStrips = false

// gemmStrips is never called when haveStrips is false.
func gemmStrips(dst, a *float64, aStride int, b *float64, bStride, k, cols int, load, skipZero bool) {
	panic("mat: strip kernel called without haveStrips")
}
