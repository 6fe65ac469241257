package mat

// haveAVX2 reports whether the float64 GEMMs and the Adam step run the
// assembly kernels of gemm_amd64.s (the GEMMs gemmKernel512 when haveAVX512
// is set too, gemmKernel otherwise). It is set once, at package init, from
// CPUID and XGETBV: the CPU must report AVX and AVX2 and the OS must have
// enabled XSAVE (OSXSAVE) with the XMM and YMM register state in XCR0.
// Without all of them the Go kernels compute everything.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// haveAVX512 reports whether the float64 GEMMs run gemmKernel512 instead
// of gemmKernel. It is set once, at package init: on top of haveAVX2 the
// CPU must report AVX512F and the OS must have enabled the opmask, ZMM_Hi256
// and Hi16_ZMM register state in XCR0.
var haveAVX512 = haveAVX2 && detectAVX512()

// detectAVX512 reads CPUID leaf 7 and XCR0; call it only when haveAVX2 is
// set, which guarantees both exist.
func detectAVX512() bool {
	const (
		avx512f = 1 << 16                          // CPUID.(7,0):EBX
		zmm     = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XCR0: XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && xgetbv0()&zmm == zmm
}

// haveFMA reports whether the CPU runs FMA3 on top of haveAVX2: the Adam
// kernel's divide-free quotients and the tanh kernel need it. It reads
// CPUID only, so GODEBUG=cpu.fma=off, which switches off math's FMA paths,
// leaves it set; the Adam kernel's bits do not depend on it.
var haveFMA = haveAVX2 && detectFMA()

func detectFMA() bool {
	const fma = 1 << 12 // CPUID.1:ECX
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. Call it only when CPUID reports
// OSXSAVE.
func xgetbv0() (xcr0 uint32)

// gemmKernel computes cols columns of rows ≤ 4 dst rows over k ascending:
// row r's element j is init + Σ_k a[r·aRowStride + k·aStride]·b[k·bStride + j],
// with the row at dst + r·dstStride. init is the element's current value
// when load is set and +0 otherwise; strides count elements. With skipZero
// set a k whose a value is ±0 adds nothing, like the Go kernels' a == 0
// skip. It does no bounds checks; call it through kernelRows.
//
//go:noescape
func gemmKernel(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool)

// gemmKernel512 is gemmKernel on AVX-512F: the same contract, and the same
// bits for every element. Like gemmKernel it does no bounds checks; call it
// through kernelRows.
//
//go:noescape
func gemmKernel512(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool)

// adamStep applies one Adam update to the first n (a multiple of 4)
// elements of p, grad, m and v. rbc1 and rbc2 must be 1/c.BC1 and 1/c.BC2;
// with fma set (which needs haveFMA) the kernel divides by them through an
// exact FMA correction wherever that gives VDIVPD's bits. It does no bounds
// checks; call it through AdamStepVec.
//
//go:noescape
func adamStep(p, grad, m, v *float64, n int, c *AdamCoeffs, rbc1, rbc2 float64, fma bool)

// transposeKernel sets dst[k·dstStride + j] = src[j·srcStride + k] for
// j < rows and k < cols, both multiples of 4. It does no bounds checks;
// call it through transposeTo.
//
//go:noescape
func transposeKernel(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)
