//go:build !amd64

package mat

// haveTanhKernel is false off amd64: TanhVec calls math.Tanh.
const haveTanhKernel = false

// The elementwise kernels are never called when haveAVX2 is false.

func tanhKernel(p *float64, n int) { panic("mat: AVX2 kernel called without haveAVX2") }

func tanhGradKernel(dst, grad, y *float64, n int) {
	panic("mat: AVX2 kernel called without haveAVX2")
}

func addRowsKernel(dst *float64, dstStride int, src *float64, srcStride, rows, cols int) {
	panic("mat: AVX2 kernel called without haveAVX2")
}

func axpyKernel(dst, src *float64, s float64, n int) {
	panic("mat: AVX2 kernel called without haveAVX2")
}

func scaleKernel(dst *float64, s float64, n int) { panic("mat: AVX2 kernel called without haveAVX2") }
