#include "textflag.h"

// AVX2 elementwise kernels (see elem_amd64.go and elem.go). Each does per
// lane exactly the arithmetic of the Go loop it replaces: separate VMULPD,
// VADDPD, VSUBPD and VDIVPD, one rounding each, and FMA only where math.Exp
// itself uses it. Every kernel covers n elements (or columns), a multiple
// of 4; the Go caller finishes the rest with its loop.

// CONST4 stores v in all four lanes of the 32-byte constant at off.
#define CONST4(off, v) \
	DATA elemc<>+(off)(SB)/8, v; \
	DATA elemc<>+(off+8)(SB)/8, v; \
	DATA elemc<>+(off+16)(SB)/8, v; \
	DATA elemc<>+(off+24)(SB)/8, v

// math.tanh's constants: the sign masks, the two branch thresholds
// (0.625 and 0.5·MAXLOG) and the rational polynomial's coefficients.
CONST4(0, $0x7fffffffffffffff)
CONST4(32, $0x8000000000000000)
CONST4(64, $0.625)
CONST4(96, $44.014845965556527147994)
CONST4(128, $-9.64399179425052238628e-1)
CONST4(160, $-9.92877231001918586564e1)
CONST4(192, $-1.61468768441708447952e3)
CONST4(224, $1.12811678491632931402e2)
CONST4(256, $2.23548839060100448583e3)
CONST4(288, $4.84406305325125486048e3)

// archExp's constants (math/exp_amd64.s), with the same literals.
CONST4(320, $1.4426950408889634073599246810018920)
CONST4(352, $0.69314718055966295651160180568695068359375)
CONST4(384, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(416, $0.0625)
CONST4(448, $2.4801587301587301587e-5)
CONST4(480, $1.9841269841269841270e-4)
CONST4(512, $1.3888888888888888889e-3)
CONST4(544, $8.3333333333333333333e-3)
CONST4(576, $4.1666666666666666667e-2)
CONST4(608, $1.6666666666666666667e-1)
CONST4(640, $0.5)
CONST4(672, $1.0)
CONST4(704, $2.0)
CONST4(736, $1023)
GLOBL elemc<>(SB), RODATA|NOPTR, $768

#define ABSMASK elemc<>+0(SB)
#define SIGNMASK elemc<>+32(SB)
#define BIG elemc<>+64(SB)
#define SAT elemc<>+96(SB)
#define P0 elemc<>+128(SB)
#define P1 elemc<>+160(SB)
#define P2 elemc<>+192(SB)
#define Q0 elemc<>+224(SB)
#define Q1 elemc<>+256(SB)
#define Q2 elemc<>+288(SB)
#define LOG2E elemc<>+320(SB)
#define LN2U elemc<>+352(SB)
#define LN2L elemc<>+384(SB)
#define SIXTEENTH elemc<>+416(SB)
#define E8 elemc<>+448(SB)
#define E7 elemc<>+480(SB)
#define E6 elemc<>+512(SB)
#define E5 elemc<>+544(SB)
#define E4 elemc<>+576(SB)
#define E3 elemc<>+608(SB)
#define HALF elemc<>+640(SB)
#define ONE elemc<>+672(SB)
#define TWO elemc<>+704(SB)
#define EXPBIAS elemc<>+736(SB)

// CMPPD predicates: ordered and quiet, so a NaN lane compares false, like
// Go's comparisons.
#define EQ_OQ $0x00
#define GE_OQ $0x1d
#define GT_OQ $0x1e

// func tanhKernel(p *float64, n int)
//
// p[i] = math.Tanh(p[i]) for i < n. Per lane it follows math.tanh's three
// branches: ±1 past 0.5·MAXLOG; 1 − 2/(e^{2|x|}+1) with x's sign at
// |x| ≥ 0.625, where e^{2|x|} repeats archExp's FMA instruction sequence
// (2|x| ∈ [1.25, 88.03] takes none of its special cases, so 2^k is a
// plain exponent); and x + x·s·P(s)/Q(s), s = x·x, below, with ±0 kept.
// A block with no lane at |x| ≥ 0.625 (NaN compares false) computes only
// the polynomial. Otherwise it computes both branches and blends the
// numerators and denominators first, so one VDIVPD serves both.
//
// Registers: DI the block, CX blocks left, Y0 x, Y1 |x|, Y2 lane masks,
// Y3 s and then x's sign, Y4 the numerator P(s), Y5 the denominator, Y6
// x·s·P(s) and the quotient, Y7 the exp argument and value, Y8 k as a
// double, X9 k, Y10 exp's polynomial, Y11 2^k.
TEXT ·tanhKernel(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $2, CX
	JEQ  tdone

tloop:
	VMOVUPD (DI), Y0
	VANDPD  ABSMASK, Y0, Y1
	VCMPPD  GE_OQ, BIG, Y1, Y2

	// x·s·((P0·s+P1)·s+P2) and ((s+Q0)·s+Q1)·s+Q2, in math.tanh's order.
	VMULPD Y0, Y0, Y3
	VMULPD P0, Y3, Y4
	VADDPD P1, Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD P2, Y4, Y4
	VADDPD Q0, Y3, Y5
	VMULPD Y3, Y5, Y5
	VADDPD Q1, Y5, Y5
	VMULPD Y3, Y5, Y5
	VADDPD Q2, Y5, Y5
	VMULPD Y3, Y0, Y6
	VMULPD Y4, Y6, Y6

	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	JNE       tfull
	VDIVPD    Y5, Y6, Y6
	VADDPD    Y6, Y0, Y6
	JMP       tzero

tfull:
	// e^t for t = 2|x|: k = round(t·log2e), r = (t − k·ln2u − k·ln2l)/16,
	// then archExp's FMA Horner polynomial and squarings.
	VADDPD       Y1, Y1, Y7
	VMULPD       LOG2E, Y7, Y8
	VCVTPD2DQY   Y8, X9
	VCVTDQ2PD    X9, Y8
	VFNMADD231PD LN2U, Y8, Y7
	VFNMADD231PD LN2L, Y8, Y7
	VMULPD       SIXTEENTH, Y7, Y7
	VMOVUPD      E8, Y10
	VFMADD213PD  E7, Y7, Y10
	VFMADD213PD  E6, Y7, Y10
	VFMADD213PD  E5, Y7, Y10
	VFMADD213PD  E4, Y7, Y10
	VFMADD213PD  E3, Y7, Y10
	VFMADD213PD  HALF, Y7, Y10
	VFMADD213PD  ONE, Y7, Y10
	VMULPD       Y10, Y7, Y7
	VADDPD       TWO, Y7, Y10
	VMULPD       Y10, Y7, Y7
	VADDPD       TWO, Y7, Y10
	VMULPD       Y10, Y7, Y7
	VADDPD       TWO, Y7, Y10
	VMULPD       Y10, Y7, Y7
	VADDPD       TWO, Y7, Y10
	VFMADD213PD  ONE, Y10, Y7
	VPMOVSXDQ    X9, Y11
	VPADDQ       EXPBIAS, Y11, Y11
	VPSLLQ       $52, Y11, Y11
	VMULPD       Y11, Y7, Y7

	// Large lanes divide 2 by e^t + 1, the others x·s·P(s) by Q(s).
	VADDPD    ONE, Y7, Y7
	VBLENDVPD Y2, TWO, Y6, Y6
	VBLENDVPD Y2, Y7, Y5, Y5
	VDIVPD    Y5, Y6, Y6
	VADDPD    Y6, Y0, Y4
	VMOVUPD   ONE, Y5
	VSUBPD    Y6, Y5, Y5
	VANDPD    SIGNMASK, Y0, Y3
	VORPD     Y3, Y5, Y5
	VBLENDVPD Y2, Y5, Y4, Y6

	// ±1 past the saturation edge (and at ±Inf).
	VCMPPD    GT_OQ, SAT, Y1, Y2
	VORPD     ONE, Y3, Y3
	VBLENDVPD Y2, Y3, Y6, Y6

tzero:
	// tanh(±0) = ±0: the polynomial gives +0 for −0.
	VXORPD    Y7, Y7, Y7
	VCMPPD    EQ_OQ, Y7, Y0, Y2
	VBLENDVPD Y2, Y0, Y6, Y6
	VMOVUPD   Y6, (DI)
	ADDQ      $32, DI
	DECQ      CX
	JNE       tloop

tdone:
	VZEROUPPER
	RET

// func tanhGradKernel(dst, grad, y *float64, n int)
//
// dst[i] = grad[i]·(1 − y[i]·y[i]) for i < n.
TEXT ·tanhGradKernel(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    grad+8(FP), SI
	MOVQ    y+16(FP), R8
	MOVQ    n+24(FP), CX
	SHLQ    $3, CX
	JEQ     gdone
	VMOVUPD ONE, Y3
	XORQ    BX, BX

gloop:
	VMOVUPD (R8)(BX*1), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y3, Y0
	VMULPD  (SI)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     gloop

gdone:
	VZEROUPPER
	RET

// func addRowsKernel(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)
//
// dst[r·dstStride + j] += src[r·srcStride + j] for r < rows, j < cols,
// rows in ascending order, so a zero dstStride sums src's rows into one
// row in row order.
TEXT ·addRowsKernel(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), R8
	SHLQ  $3, R8
	MOVQ  src+16(FP), SI
	MOVQ  srcStride+24(FP), R9
	SHLQ  $3, R9
	MOVQ  rows+32(FP), CX
	MOVQ  cols+40(FP), DX
	SHLQ  $3, DX
	TESTQ CX, CX
	JEQ   rdone
	TESTQ DX, DX
	JEQ   rdone

rrow:
	XORQ BX, BX

rcol:
	VMOVUPD (DI)(BX*1), Y0
	VADDPD  (SI)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     rcol
	ADDQ    R8, DI
	ADDQ    R9, SI
	DECQ    CX
	JNE     rrow

rdone:
	VZEROUPPER
	RET

// func axpyKernel(dst, src *float64, s float64, n int)
//
// dst[i] += s·src[i] for i < n: the product rounded, then the sum.
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD s+16(FP), Y2
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	JEQ          xdone
	XORQ         BX, BX

xloop:
	VMULPD  (SI)(BX*1), Y2, Y1
	VMOVUPD (DI)(BX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     xloop

xdone:
	VZEROUPPER
	RET

// func scaleKernel(dst *float64, s float64, n int)
//
// dst[i] *= s for i < n.
TEXT ·scaleKernel(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD s+8(FP), Y1
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	JEQ          sdone
	XORQ         BX, BX

sloop:
	VMULPD  (DI)(BX*1), Y1, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     sloop

sdone:
	VZEROUPPER
	RET
