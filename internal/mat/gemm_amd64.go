package mat

// haveStrips reports whether the float64 GEMMs run their leading 8-column
// blocks through the SSE2 strip kernel of gemm_amd64.s. SSE2 is part of
// the amd64 baseline, so no CPU detection is needed.
const haveStrips = true

// gemmStrips accumulates cols columns (a multiple of 8) of one dst row over
// k ascending: dst[j] = init_j + Σ_k a[k·aStride]·b[k·bStride + j], where
// init_j is dst[j] when load is set and +0 otherwise, and the strides count
// elements. With skipZero set a k whose a value is ±0 adds nothing, like the
// Go kernels' a == 0 skip. It does no bounds checks; call it through
// stripRow.
//
//go:noescape
func gemmStrips(dst, a *float64, aStride int, b *float64, bStride, k, cols int, load, skipZero bool)
