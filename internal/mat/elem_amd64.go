package mat

import "math"

// haveTanhKernel reports whether TanhVec runs tanhKernel. The kernel needs
// AVX2 and FMA, and it reproduces math.Tanh only while math.Exp takes its
// FMA path, which the runtime can switch off (GODEBUG=cpu.fma=off). So
// besides CPUID it requires a start-up probe: the kernel must give
// math.Tanh's bits on inputs from both of tanh's branches, among them
// −0.6292001413901859, whose tanh is 0xbfe1d70cc4517ea9 with math.Exp's FMA
// path and …ea8 without it.
var haveTanhKernel = haveAVX2 && detectFMA() && tanhProbe()

func detectFMA() bool {
	const fma = 1 << 12 // CPUID.1:ECX
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func tanhProbe() bool {
	in := [4]float64{-0.6292001413901859, 0.3, 2.5, -7}
	out := in
	tanhKernel(&out[0], len(out))
	for i, x := range in {
		if math.Float64bits(out[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// tanhKernel sets p[i] = math.Tanh(p[i]) for i < n, a multiple of 4. It
// does no bounds checks; call it through TanhVec.
//
//go:noescape
func tanhKernel(p *float64, n int)

// tanhGradKernel sets dst[i] = grad[i]·(1 − y[i]·y[i]) for i < n, a multiple
// of 4. It does no bounds checks; call it through TanhGradTo.
//
//go:noescape
func tanhGradKernel(dst, grad, y *float64, n int)

// addRowsKernel adds src[r·srcStride + j] into dst[r·dstStride + j] for
// r < rows and j < cols, a multiple of 4. It does no bounds checks; call it
// through addRows.
//
//go:noescape
func addRowsKernel(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)

// axpyKernel sets dst[i] += s·src[i] for i < n, a multiple of 4. It does
// no bounds checks; call it through axpy.
//
//go:noescape
func axpyKernel(dst, src *float64, s float64, n int)

// scaleKernel sets dst[i] *= s for i < n, a multiple of 4. It does no
// bounds checks; call it through ScaleVec.
//
//go:noescape
func scaleKernel(dst *float64, s float64, n int)
