#include "textflag.h"

// SSE2 strip kernel for the float64 GEMMs (see gemm_amd64.go). One call
// computes cols (a multiple of 8) columns of one dst row as 16-column
// strips, then one 8-column strip when 8 columns remain. Each strip keeps
// its columns in packed accumulators (two float64 per XMM register) and
// walks k ascending; per k it broadcasts a[k] and does, per register pair,
//
//	acc += a[k] * b[k][j:j+2]
//
// with a separate MULPD and ADDPD: two roundings per product, the same as
// the scalar MULSD/ADDSD of the Go kernels. No FMA, no reassociation.
//
// Register use: DI dst strip, SI a, DX a stride (bytes), BX b strip,
// R8 b stride (bytes), CX k, R9 columns left, R10/R11 a/b cursors,
// R12 k countdown, AX the zero test, X0–X7 accumulators, X8 the broadcast
// a[k], X9–X12 products.

// MAC2 accumulates b[k][off/8 : off/8+2] · a[k] into acc through tmp.
#define MAC2(off, tmp, acc) \
	MOVUPD off(R11), tmp; \
	MULPD  X8, tmp;       \
	ADDPD  tmp, acc

#define MAC16 \
	MAC2(0, X9, X0);    \
	MAC2(16, X10, X1);  \
	MAC2(32, X11, X2);  \
	MAC2(48, X12, X3);  \
	MAC2(64, X9, X4);   \
	MAC2(80, X10, X5);  \
	MAC2(96, X11, X6);  \
	MAC2(112, X12, X7)

#define MAC8 \
	MAC2(0, X9, X0);   \
	MAC2(16, X10, X1); \
	MAC2(32, X11, X2); \
	MAC2(48, X12, X3)

// BROADCAST loads a[k] into both lanes of X8.
#define BROADCAST \
	MOVSD    (R10), X8; \
	UNPCKLPD X8, X8

// ZEROSKIP jumps to skip when a[k] is +0 or −0 (its bits shifted left by
// one are zero); NaN and every nonzero value fall through, exactly like
// the Go kernels' a == 0 test.
#define ZEROSKIP(skip) \
	MOVQ (R10), AX; \
	SHLQ $1, AX;    \
	JEQ  skip

#define ADVANCE \
	ADDQ DX, R10; \
	ADDQ R8, R11; \
	DECQ R12

// func gemmStrips(dst, a *float64, aStride int, b *float64, bStride, k, cols int, load, skipZero bool)
TEXT ·gemmStrips(SB), NOSPLIT, $0-58
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), DX
	SHLQ $3, DX
	MOVQ b+24(FP), BX
	MOVQ bStride+32(FP), R8
	SHLQ $3, R8
	MOVQ k+40(FP), CX
	MOVQ cols+48(FP), R9

strip16:
	CMPQ R9, $16
	JLT  strip8
	CMPB load+56(FP), $0
	JEQ  zero16
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	JMP  k16

zero16:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7

k16:
	MOVQ  SI, R10
	MOVQ  BX, R11
	MOVQ  CX, R12
	TESTQ R12, R12
	JEQ   store16
	CMPB  skipZero+57(FP), $0
	JEQ   dense16

sparse16:
	ZEROSKIP(next16)
	BROADCAST
	MAC16

next16:
	ADVANCE
	JNE sparse16
	JMP store16

dense16:
	BROADCAST
	MAC16
	ADVANCE
	JNE dense16

store16:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, BX
	SUBQ   $16, R9
	JMP    strip16

strip8:
	CMPQ R9, $8
	JLT  done
	CMPB load+56(FP), $0
	JEQ  zero8
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	JMP  k8

zero8:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3

k8:
	MOVQ  SI, R10
	MOVQ  BX, R11
	MOVQ  CX, R12
	TESTQ R12, R12
	JEQ   store8
	CMPB  skipZero+57(FP), $0
	JEQ   dense8

sparse8:
	ZEROSKIP(next8)
	BROADCAST
	MAC8

next8:
	ADVANCE
	JNE sparse8
	JMP store8

dense8:
	BROADCAST
	MAC8
	ADVANCE
	JNE dense8

store8:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)

done:
	RET
