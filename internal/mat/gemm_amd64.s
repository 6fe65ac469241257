#include "textflag.h"

// AVX2 kernels for the float64 GEMMs and the Adam step, and the AVX-512
// tier of the GEMM kernel (see gemm_amd64.go).
//
// CI runners may lack AVX-512F, where the avx512 oracle test skips and CI
// passes without running gemmKernel512. So check any change to it on a
// host with AVX-512F: `go test -race -run TestStrip -v ./internal/mat`
// must print "--- PASS: TestStripKernelMatchesGeneric/avx512".
//
// Every lane gets exactly the bits of the Go code it replaces. The GEMMs do
// its arithmetic in the same order: a separate VMULPD and VADDPD per
// product, so two roundings, like the Go kernels' scalar c += av*b. No FMA,
// no reassociation, and lanes never mix, so there is no horizontal sum. The
// Adam step uses FMA only for exact residuals that give its divides' bits
// (see adamStep).
//
// gemmKernel computes cols columns of n ≤ 4 dst rows. The whole 8-column
// blocks of each row run as 32-, 16- and 8-column strips held in YMM
// accumulators (four float64 each); per k, ascending, the strip broadcasts
// a[k] and multiplies and adds it into every accumulator. The remaining
// cols mod 8 columns (the narrow heads) run the n rows side by side, so the
// rows' add chains overlap instead of waiting on each other; a row past n
// repeats row n-1, which stores the same values twice. Masked loads and
// stores confine the tail to its columns.
//
// Register use, strips: DI dst strip, SI a row, DX a stride (bytes), BX b
// strip, R8 b stride (bytes), CX rows left, R9 strip columns left, R10/R11
// a/b cursors, R12 k countdown, R13 dst row, AX the zero test, Y0–Y7
// accumulators, Y8 the broadcast a[k], Y9–Y12 products. Tail: CX dst, SI/DI/R9
// row offsets, R13 upper-half lane count, Y0–Y3 and Y4–Y7 the rows' lower
// and upper column halves, Y9/Y10 b[k], Y14/Y15 lane masks.

// tailMask is four all-ones lanes then four zero lanes: the four lanes read
// from tailMask+32-8n enable the first n.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// MAC accumulates b[k][off/8 : off/8+4] · a[k] into acc through tmp.
#define MAC(off, tmp, acc) \
	VMULPD off(R11), Y8, tmp; \
	VADDPD tmp, acc, acc

#define MAC8 \
	MAC(0, Y9, Y0); \
	MAC(32, Y10, Y1)

#define MAC16 \
	MAC8; \
	MAC(64, Y11, Y2); \
	MAC(96, Y12, Y3)

#define MAC32 \
	MAC16; \
	MAC(128, Y9, Y4); \
	MAC(160, Y10, Y5); \
	MAC(192, Y11, Y6); \
	MAC(224, Y12, Y7)

#define LOAD8 \
	VMOVUPD 0(DI), Y0; \
	VMOVUPD 32(DI), Y1

#define LOAD16 \
	LOAD8; \
	VMOVUPD 64(DI), Y2; \
	VMOVUPD 96(DI), Y3

#define LOAD32 \
	LOAD16; \
	VMOVUPD 128(DI), Y4; \
	VMOVUPD 160(DI), Y5; \
	VMOVUPD 192(DI), Y6; \
	VMOVUPD 224(DI), Y7

#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1

#define ZERO16 \
	ZERO8; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3

#define ZERO32 \
	ZERO16; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

#define STORE8 \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI)

#define STORE16 \
	STORE8; \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI)

#define STORE32 \
	STORE16; \
	VMOVUPD Y4, 128(DI); \
	VMOVUPD Y5, 160(DI); \
	VMOVUPD Y6, 192(DI); \
	VMOVUPD Y7, 224(DI)

// ZEROSKIP jumps to skip when the a value at addr is +0 or −0 (its bits
// shifted left by one are zero); NaN and every nonzero value fall through,
// exactly like the Go kernels' a == 0 test.
#define ZEROSKIP(addr, skip) \
	MOVQ addr, AX; \
	SHLQ $1, AX; \
	JEQ  skip

#define ADVANCE \
	ADDQ DX, R10; \
	ADDQ R8, R11; \
	DECQ R12

// STRIP computes one strip of the current row: accumulators from dst
// (load) or +0, then every k ascending, then one store.
#define STRIP(LOADS, ZEROS, MACS, STORES, zero, kloop, sparse, next, dense, store) \
	CMPB load+80(FP), $0; \
	JEQ  zero; \
	LOADS; \
	JMP  kloop; \
zero: \
	ZEROS; \
kloop: \
	MOVQ  SI, R10; \
	MOVQ  BX, R11; \
	MOVQ  k+56(FP), R12; \
	TESTQ R12, R12; \
	JEQ   store; \
	CMPB  skipZero+81(FP), $0; \
	JEQ   dense; \
sparse: \
	ZEROSKIP((R10), next); \
	VBROADCASTSD (R10), Y8; \
	MACS; \
next: \
	ADVANCE; \
	JNE sparse; \
	JMP store; \
dense: \
	VBROADCASTSD (R10), Y8; \
	MACS; \
	ADVANCE; \
	JNE dense; \
store: \
	STORES

// ROWOFFS sets o1–o3 to the byte offsets of rows 1–3 for a row stride of
// stride elements, with rows at or past n repeating row n-1. It clobbers
// AX, BX and R12.
#define ROWOFFS(stride, o1, o2, o3) \
	MOVQ    stride, AX; \
	SHLQ    $3, AX; \
	MOVQ    rows+72(FP), BX; \
	XORQ    o1, o1; \
	CMPQ    BX, $2; \
	CMOVQGE AX, o1; \
	MOVQ    o1, o2; \
	LEAQ    (AX)(AX*1), R12; \
	CMPQ    BX, $3; \
	CMOVQGE R12, o2; \
	MOVQ    o2, o3; \
	ADDQ    AX, R12; \
	CMPQ    BX, $4; \
	CMOVQGE R12, o3

// TMAC4 adds a·b[k] over the lower four tail columns into lo, for the a
// value at addr; TMAC8 also does the upper ones into hi.
#define TMAC4(addr, lo) \
	VBROADCASTSD addr, Y8; \
	VMULPD       Y9, Y8, Y11; \
	VADDPD       Y11, lo, lo

#define TMAC8(addr, lo, hi) \
	TMAC4(addr, lo); \
	VMULPD Y10, Y8, Y12; \
	VADDPD Y12, hi, hi

// func gemmKernel(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool)
TEXT ·gemmKernel(SB), NOSPLIT, $0-82
	MOVQ aStride+32(FP), DX
	SHLQ $3, DX
	MOVQ bStride+48(FP), R8
	SHLQ $3, R8
	MOVQ cols+64(FP), AX
	ANDQ $-8, AX
	JEQ  tail
	MOVQ dst+0(FP), R13
	MOVQ a+16(FP), SI
	MOVQ rows+72(FP), CX

row:
	MOVQ R13, DI
	MOVQ b+40(FP), BX
	MOVQ cols+64(FP), R9
	ANDQ $-8, R9

strip32:
	CMPQ R9, $32
	JLT  strip16
	STRIP(LOAD32, ZERO32, MAC32, STORE32, z32, k32, s32, n32, d32, st32)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R9
	JMP  strip32

strip16:
	CMPQ R9, $16
	JLT  strip8
	STRIP(LOAD16, ZERO16, MAC16, STORE16, z16, k16, s16, n16, d16, st16)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, R9

strip8:
	CMPQ R9, $8
	JLT  nextrow
	STRIP(LOAD8, ZERO8, MAC8, STORE8, z8, k8, s8, n8, d8, st8)

nextrow:
	MOVQ dstStride+8(FP), AX
	LEAQ (R13)(AX*8), R13
	MOVQ aRowStride+24(FP), AX
	LEAQ (SI)(AX*8), SI
	DECQ CX
	JNE  row

tail:
	MOVQ    cols+64(FP), AX
	ANDQ    $7, AX
	JEQ     done
	MOVQ    $4, BX
	CMPQ    AX, $4
	CMOVQLT AX, BX
	SUBQ    BX, AX
	MOVQ    AX, R13
	LEAQ    tailMask<>+32(SB), R9
	NEGQ    BX
	VMOVUPD (R9)(BX*8), Y14
	NEGQ    AX
	VMOVUPD (R9)(AX*8), Y15

	MOVQ cols+64(FP), AX
	ANDQ $-8, AX
	MOVQ dst+0(FP), CX
	LEAQ (CX)(AX*8), CX
	MOVQ b+40(FP), R11
	LEAQ (R11)(AX*8), R11
	ROWOFFS(dstStride+8(FP), SI, DI, R9)
	CMPB load+80(FP), $0
	JEQ  tzero
	VMASKMOVPD (CX), Y14, Y0
	VMASKMOVPD (CX)(SI*1), Y14, Y1
	VMASKMOVPD (CX)(DI*1), Y14, Y2
	VMASKMOVPD (CX)(R9*1), Y14, Y3
	VMASKMOVPD 32(CX), Y15, Y4
	VMASKMOVPD 32(CX)(SI*1), Y15, Y5
	VMASKMOVPD 32(CX)(DI*1), Y15, Y6
	VMASKMOVPD 32(CX)(R9*1), Y15, Y7
	JMP  tk

tzero:
	ZERO32

tk:
	ROWOFFS(aRowStride+24(FP), SI, DI, R9)
	MOVQ  a+16(FP), R10
	MOVQ  k+56(FP), R12
	TESTQ R12, R12
	JEQ   tstore
	CMPB  skipZero+81(FP), $0
	JEQ   tdense
	TESTQ R13, R13
	JEQ   tsparse4

tsparse8:
	VMASKMOVPD (R11), Y14, Y9
	VMASKMOVPD 32(R11), Y15, Y10
	ZEROSKIP((R10), ts80)
	TMAC8((R10), Y0, Y4)
ts80:
	ZEROSKIP((R10)(SI*1), ts81)
	TMAC8((R10)(SI*1), Y1, Y5)
ts81:
	ZEROSKIP((R10)(DI*1), ts82)
	TMAC8((R10)(DI*1), Y2, Y6)
ts82:
	ZEROSKIP((R10)(R9*1), ts83)
	TMAC8((R10)(R9*1), Y3, Y7)
ts83:
	ADVANCE
	JNE tsparse8
	JMP tstore

tsparse4:
	VMASKMOVPD (R11), Y14, Y9
	ZEROSKIP((R10), ts40)
	TMAC4((R10), Y0)
ts40:
	ZEROSKIP((R10)(SI*1), ts41)
	TMAC4((R10)(SI*1), Y1)
ts41:
	ZEROSKIP((R10)(DI*1), ts42)
	TMAC4((R10)(DI*1), Y2)
ts42:
	ZEROSKIP((R10)(R9*1), ts43)
	TMAC4((R10)(R9*1), Y3)
ts43:
	ADVANCE
	JNE tsparse4
	JMP tstore

tdense:
	TESTQ R13, R13
	JEQ   tdense4

tdense8:
	VMASKMOVPD (R11), Y14, Y9
	VMASKMOVPD 32(R11), Y15, Y10
	TMAC8((R10), Y0, Y4)
	TMAC8((R10)(SI*1), Y1, Y5)
	TMAC8((R10)(DI*1), Y2, Y6)
	TMAC8((R10)(R9*1), Y3, Y7)
	ADVANCE
	JNE tdense8
	JMP tstore

tdense4:
	VMASKMOVPD (R11), Y14, Y9
	TMAC4((R10), Y0)
	TMAC4((R10)(SI*1), Y1)
	TMAC4((R10)(DI*1), Y2)
	TMAC4((R10)(R9*1), Y3)
	ADVANCE
	JNE tdense4

tstore:
	ROWOFFS(dstStride+8(FP), SI, DI, R9)
	VMASKMOVPD Y0, Y14, (CX)
	VMASKMOVPD Y1, Y14, (CX)(SI*1)
	VMASKMOVPD Y2, Y14, (CX)(DI*1)
	VMASKMOVPD Y3, Y14, (CX)(R9*1)
	VMASKMOVPD Y4, Y15, 32(CX)
	VMASKMOVPD Y5, Y15, 32(CX)(SI*1)
	VMASKMOVPD Y6, Y15, 32(CX)(DI*1)
	VMASKMOVPD Y7, Y15, 32(CX)(R9*1)

done:
	VZEROUPPER
	RET

// gemmKernel512 is gemmKernel for CPUs with AVX-512F (see gemm_amd64.go):
// the same contract and, per element, the same arithmetic in the same
// order, eight lanes to a ZMM register. The call's rows run in pairs, each
// pair's whole 8-column blocks as 64-, 32-, 16- and 8-column strips; a
// pair shares each b[k] load, so b streams through the cache once per two
// rows. An odd last row runs the same strips alone. The cols mod 8 tail
// columns run the n rows side by side, as in gemmKernel, in one ZMM per row
// confined to the tail by the opmask K1.
//
// Register use, strips: as gemmKernel, plus R14 and R15 the dst and a row
// strides (bytes), so a pair's second row is at (DI)(R14*1) in dst and at
// (R10)(R15*1) in a. Z0–Z7 first-row accumulators, Z8–Z15 second-row
// accumulators, Z16/Z17 the rows' broadcast a[k], Z18 the b[k] block, Z19/Z20
// products. Tail: as gemmKernel, with Z0–Z3 the rows' accumulators, Z9 b[k],
// Z8 the broadcast a[k] and Z10 the product.

// ZCOLSn applies OP to the n/8 column blocks of a strip: OP(byte offset,
// first-row accumulator, second-row accumulator).
#define ZCOLS8(OP) \
	OP(0, Z0, Z8)

#define ZCOLS16(OP) \
	ZCOLS8(OP); \
	OP(64, Z1, Z9)

#define ZCOLS32(OP) \
	ZCOLS16(OP); \
	OP(128, Z2, Z10); \
	OP(192, Z3, Z11)

#define ZCOLS64(OP) \
	ZCOLS32(OP); \
	OP(256, Z4, Z12); \
	OP(320, Z5, Z13); \
	OP(384, Z6, Z14); \
	OP(448, Z7, Z15)

// Column-block operations: the 1 forms touch the first row only, the 2
// forms both rows. ZMAC2 loads b[k]'s block once for both products; ZMAC0
// and ZMAC1 are the first and the second row alone.
#define ZLOAD1(off, r0, r1) \
	VMOVUPD off(DI), r0

#define ZLOAD2(off, r0, r1) \
	ZLOAD1(off, r0, r1); \
	VMOVUPD off(DI)(R14*1), r1

#define ZCLEAR1(off, r0, r1) \
	VPXORQ r0, r0, r0

#define ZCLEAR2(off, r0, r1) \
	ZCLEAR1(off, r0, r1); \
	VPXORQ r1, r1, r1

#define ZSTORE1(off, r0, r1) \
	VMOVUPD r0, off(DI)

#define ZSTORE2(off, r0, r1) \
	ZSTORE1(off, r0, r1); \
	VMOVUPD r1, off(DI)(R14*1)

#define ZMAC0(off, r0, r1) \
	VMULPD off(R11), Z16, Z19; \
	VADDPD Z19, r0, r0

#define ZMAC1(off, r0, r1) \
	VMULPD off(R11), Z17, Z20; \
	VADDPD Z20, r1, r1

#define ZMAC2(off, r0, r1) \
	VMOVUPD off(R11), Z18; \
	VMULPD  Z18, Z16, Z19; \
	VADDPD  Z19, r0, r0; \
	VMULPD  Z18, Z17, Z20; \
	VADDPD  Z20, r1, r1

// ZKLOOP sets the a and b cursors and the k countdown for a strip, and
// jumps to store when k is 0 and to dense without skipZero.
#define ZKLOOP(store, dense) \
	MOVQ  SI, R10; \
	MOVQ  BX, R11; \
	MOVQ  k+56(FP), R12; \
	TESTQ R12, R12; \
	JEQ   store; \
	CMPB  skipZero+81(FP), $0; \
	JEQ   dense

// PAIRSTRIP computes one strip of the current row pair: accumulators from
// dst (load) or +0, then every k ascending, then one store per row. With
// skipZero each row tests its own a[k]: a k where both are nonzero runs
// ZMAC2, one where only one is runs that row's ZMAC, and one where both
// are ±0 adds nothing.
#define PAIRSTRIP(COLS, zero, kloop, sparse, next, only0, only1, dense, store) \
	CMPB load+80(FP), $0; \
	JEQ  zero; \
	COLS(ZLOAD2); \
	JMP  kloop; \
zero: \
	COLS(ZCLEAR2); \
kloop: \
	ZKLOOP(store, dense); \
sparse: \
	ZEROSKIP((R10), only1); \
	ZEROSKIP((R10)(R15*1), only0); \
	VBROADCASTSD (R10), Z16; \
	VBROADCASTSD (R10)(R15*1), Z17; \
	COLS(ZMAC2); \
next: \
	ADVANCE; \
	JNE sparse; \
	JMP store; \
only0: \
	VBROADCASTSD (R10), Z16; \
	COLS(ZMAC0); \
	JMP next; \
only1: \
	ZEROSKIP((R10)(R15*1), next); \
	VBROADCASTSD (R10)(R15*1), Z17; \
	COLS(ZMAC1); \
	JMP next; \
dense: \
	VBROADCASTSD (R10), Z16; \
	VBROADCASTSD (R10)(R15*1), Z17; \
	COLS(ZMAC2); \
	ADVANCE; \
	JNE dense; \
store: \
	COLS(ZSTORE2)

// ROWSTRIP is PAIRSTRIP for the odd last row alone.
#define ROWSTRIP(COLS, zero, kloop, sparse, next, dense, store) \
	CMPB load+80(FP), $0; \
	JEQ  zero; \
	COLS(ZLOAD1); \
	JMP  kloop; \
zero: \
	COLS(ZCLEAR1); \
kloop: \
	ZKLOOP(store, dense); \
sparse: \
	ZEROSKIP((R10), next); \
	VBROADCASTSD (R10), Z16; \
	COLS(ZMAC0); \
next: \
	ADVANCE; \
	JNE sparse; \
	JMP store; \
dense: \
	VBROADCASTSD (R10), Z16; \
	COLS(ZMAC0); \
	ADVANCE; \
	JNE dense; \
store: \
	COLS(ZSTORE1)

// ZTMAC adds a·b[k] over the tail columns into acc, for the a value at
// addr.
#define ZTMAC(addr, acc) \
	VBROADCASTSD addr, Z8; \
	VMULPD       Z9, Z8, Z10; \
	VADDPD       Z10, acc, acc

// func gemmKernel512(dst *float64, dstStride int, a *float64, aRowStride, aStride int, b *float64, bStride, k, cols, rows int, load, skipZero bool)
TEXT ·gemmKernel512(SB), NOSPLIT, $0-82
	MOVQ aStride+32(FP), DX
	SHLQ $3, DX
	MOVQ bStride+48(FP), R8
	SHLQ $3, R8
	MOVQ dstStride+8(FP), R14
	SHLQ $3, R14
	MOVQ aRowStride+24(FP), R15
	SHLQ $3, R15
	MOVQ cols+64(FP), AX
	ANDQ $-8, AX
	JEQ  ztail
	MOVQ dst+0(FP), R13
	MOVQ a+16(FP), SI
	MOVQ rows+72(FP), CX

zpair:
	CMPQ CX, $2
	JLT  zrow
	MOVQ R13, DI
	MOVQ b+40(FP), BX
	MOVQ cols+64(FP), R9
	ANDQ $-8, R9

zp64:
	CMPQ R9, $64
	JLT  zp32
	PAIRSTRIP(ZCOLS64, pz64, pk64, ps64, pn64, pa64, pb64, pd64, pst64)
	ADDQ $512, DI
	ADDQ $512, BX
	SUBQ $64, R9
	JMP  zp64

zp32:
	CMPQ R9, $32
	JLT  zp16
	PAIRSTRIP(ZCOLS32, pz32, pk32, ps32, pn32, pa32, pb32, pd32, pst32)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R9

zp16:
	CMPQ R9, $16
	JLT  zp8
	PAIRSTRIP(ZCOLS16, pz16, pk16, ps16, pn16, pa16, pb16, pd16, pst16)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, R9

zp8:
	CMPQ R9, $8
	JLT  zpnext
	PAIRSTRIP(ZCOLS8, pz8, pk8, ps8, pn8, pa8, pb8, pd8, pst8)

zpnext:
	LEAQ (R13)(R14*2), R13
	LEAQ (SI)(R15*2), SI
	SUBQ $2, CX
	JNE  zpair
	JMP  ztail

zrow:
	MOVQ R13, DI
	MOVQ b+40(FP), BX
	MOVQ cols+64(FP), R9
	ANDQ $-8, R9

zr64:
	CMPQ R9, $64
	JLT  zr32
	ROWSTRIP(ZCOLS64, rz64, rk64, rs64, rn64, rd64, rst64)
	ADDQ $512, DI
	ADDQ $512, BX
	SUBQ $64, R9
	JMP  zr64

zr32:
	CMPQ R9, $32
	JLT  zr16
	ROWSTRIP(ZCOLS32, rz32, rk32, rs32, rn32, rd32, rst32)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R9

zr16:
	CMPQ R9, $16
	JLT  zr8
	ROWSTRIP(ZCOLS16, rz16, rk16, rs16, rn16, rd16, rst16)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, R9

zr8:
	CMPQ R9, $8
	JLT  ztail
	ROWSTRIP(ZCOLS8, rz8, rk8, rs8, rn8, rd8, rst8)

ztail:
	MOVQ  cols+64(FP), CX
	ANDQ  $7, CX
	JEQ   zdone
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1

	MOVQ cols+64(FP), AX
	ANDQ $-8, AX
	MOVQ dst+0(FP), CX
	LEAQ (CX)(AX*8), CX
	MOVQ b+40(FP), R11
	LEAQ (R11)(AX*8), R11
	ROWOFFS(dstStride+8(FP), SI, DI, R9)
	CMPB load+80(FP), $0
	JEQ  ztzero
	VMOVUPD.Z (CX), K1, Z0
	VMOVUPD.Z (CX)(SI*1), K1, Z1
	VMOVUPD.Z (CX)(DI*1), K1, Z2
	VMOVUPD.Z (CX)(R9*1), K1, Z3
	JMP  ztk

ztzero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

ztk:
	ROWOFFS(aRowStride+24(FP), SI, DI, R9)
	MOVQ  a+16(FP), R10
	MOVQ  k+56(FP), R12
	TESTQ R12, R12
	JEQ   ztstore
	CMPB  skipZero+81(FP), $0
	JEQ   ztdense

ztsparse:
	VMOVUPD.Z (R11), K1, Z9
	ZEROSKIP((R10), zts0)
	ZTMAC((R10), Z0)
zts0:
	ZEROSKIP((R10)(SI*1), zts1)
	ZTMAC((R10)(SI*1), Z1)
zts1:
	ZEROSKIP((R10)(DI*1), zts2)
	ZTMAC((R10)(DI*1), Z2)
zts2:
	ZEROSKIP((R10)(R9*1), zts3)
	ZTMAC((R10)(R9*1), Z3)
zts3:
	ADVANCE
	JNE ztsparse
	JMP ztstore

ztdense:
	VMOVUPD.Z (R11), K1, Z9
	ZTMAC((R10), Z0)
	ZTMAC((R10)(SI*1), Z1)
	ZTMAC((R10)(DI*1), Z2)
	ZTMAC((R10)(R9*1), Z3)
	ADVANCE
	JNE ztdense

ztstore:
	ROWOFFS(dstStride+8(FP), SI, DI, R9)
	VMOVUPD Z0, K1, (CX)
	VMOVUPD Z1, K1, (CX)(SI*1)
	VMOVUPD Z2, K1, (CX)(DI*1)
	VMOVUPD Z3, K1, (CX)(R9*1)

zdone:
	VZEROUPPER
	RET

// The Adam step's gate constants: |x| and the bounds [2^-900, 2^900] of
// the dividends whose quotients take the FMA correction.
DATA adamc<>+0(SB)/8, $0x7fffffffffffffff
DATA adamc<>+8(SB)/8, $0x7fffffffffffffff
DATA adamc<>+16(SB)/8, $0x7fffffffffffffff
DATA adamc<>+24(SB)/8, $0x7fffffffffffffff
DATA adamc<>+32(SB)/8, $0x07b0000000000000
DATA adamc<>+40(SB)/8, $0x07b0000000000000
DATA adamc<>+48(SB)/8, $0x07b0000000000000
DATA adamc<>+56(SB)/8, $0x07b0000000000000
DATA adamc<>+64(SB)/8, $0x7830000000000000
DATA adamc<>+72(SB)/8, $0x7830000000000000
DATA adamc<>+80(SB)/8, $0x7830000000000000
DATA adamc<>+88(SB)/8, $0x7830000000000000
GLOBL adamc<>(SB), RODATA|NOPTR, $96

#define ADAM_ABS adamc<>+0(SB)
#define ADAM_LO adamc<>+32(SB)
#define ADAM_HI adamc<>+64(SB)

// CMPPD predicates, ordered and quiet: a NaN lane compares false.
#define GE_OQ $0x1d
#define LE_OQ $0x12

// func adamStep(p, grad, m, v *float64, n int, c *AdamCoeffs, rbc1, rbc2 float64, fma bool)
//
// Per element, in the order of the Go loop: g = gs·g, m = b1·m + c1·g,
// v = b2·v + (c2·g)·g, m̂ = m/bc1, v̂ = v/bc2, p −= (lr·m̂)/(√v̂ + ε).
// VDIVPD and VSQRTPD round correctly, like DIVSD and SQRTSD. n is a
// multiple of 4; the coefficients are read in AdamCoeffs field order.
//
// With fma set, a block whose four |m| and v all lie in [2^-900, 2^900]
// gets m̂ and v̂ without a divide, from rbc1 = 1/bc1 and rbc2 = 1/bc2
// (both correctly rounded): q = m·rbc1, then q + (m − q·bc1)·rbc1 with
// the residual m − q·bc1 exact in VFNMADD231PD (Markstein, IBM J. R&D
// 1990). That is the correctly rounded m/bc1, the bits of VDIVPD, for
// every such m and every bc1 in [2^-100, 2^100], the range AdamStepVec
// passes fma for (DESIGN.md §16). A block with a
// lane outside the range, among them ±0, subnormals, ±Inf, NaN and a
// negative v, divides as without fma. The last divide, by √v̂ + ε, varies
// per element and stays a VDIVPD.
//
// Registers: DI/SI/R8/R9 p/grad/m/v, BX the offset, CX blocks left, R10
// fma, DX the gate mask, Y0–Y4 the block, Y5/Y6 rbc1/rbc2, Y7 gs, Y8–Y15
// b1, c1, b2, c2, bc1, bc2, lr, ε.
TEXT ·adamStep(SB), NOSPLIT, $0-65
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	MOVBQZX fma+64(FP), R10
	VBROADCASTSD rbc1+48(FP), Y5
	VBROADCASTSD rbc2+56(FP), Y6
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	VBROADCASTSD 64(AX), Y7
	XORQ BX, BX
	SHRQ $2, CX
	JEQ  adone

aloop:
	VMULPD  (SI)(BX*1), Y7, Y0
	VMULPD  (R8)(BX*1), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(BX*1)
	VMULPD  (R9)(BX*1), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(BX*1)
	TESTQ   R10, R10
	JEQ     adiv

	// The gate: every |m| and v in [2^-900, 2^900]; NaN compares false.
	VANDPD    ADAM_ABS, Y1, Y0
	VCMPPD    GE_OQ, ADAM_LO, Y0, Y2
	VCMPPD    LE_OQ, ADAM_HI, Y0, Y0
	VANDPD    Y2, Y0, Y0
	VCMPPD    GE_OQ, ADAM_LO, Y3, Y2
	VANDPD    Y2, Y0, Y0
	VCMPPD    LE_OQ, ADAM_HI, Y3, Y2
	VANDPD    Y2, Y0, Y0
	VMOVMSKPD Y0, DX
	CMPL      DX, $15
	JNE       adiv

	VMULPD       Y5, Y1, Y0
	VFNMADD231PD Y0, Y12, Y1
	VFMADD231PD  Y1, Y5, Y0
	VMULPD       Y6, Y3, Y2
	VFNMADD231PD Y2, Y13, Y3
	VFMADD231PD  Y3, Y6, Y2
	JMP          aupdate

adiv:
	VDIVPD Y12, Y1, Y0
	VDIVPD Y13, Y3, Y2

aupdate:
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2
	VMULPD  Y0, Y14, Y0
	VDIVPD  Y2, Y0, Y0
	VMOVUPD (DI)(BX*1), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNE     aloop

adone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (xcr0 uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET

// func transposeKernel(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)
//
// dst[k·dstStride + j] = src[j·srcStride + k] for j < rows and k < cols,
// both multiples of 4, in 4×4 blocks: four rows of src are loaded, and
// VUNPCKLPD/VUNPCKHPD then VPERM2F128 turn them into four columns, stored
// as four rows of dst. Pure data movement, so every bit is kept. The outer
// loop walks src's row bands, the inner one their column blocks.
//
// Register use: SI src band, DI dst column, R8/R9 dst/src stride (bytes),
// R10/R11 three dst/src strides, CX bands left, DX blocks per band, AX/BX
// src/dst block cursors, R12 blocks left, Y0–Y7 the block.
TEXT ·transposeKernel(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), CX
	MOVQ cols+40(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R10
	LEAQ (R9)(R9*2), R11
	SHRQ $2, CX
	JEQ  tdone
	SHRQ $2, DX
	JEQ  tdone

tband:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ DX, R12

tblock:
	VMOVUPD    (AX), Y0
	VMOVUPD    (AX)(R9*1), Y1
	VMOVUPD    (AX)(R9*2), Y2
	VMOVUPD    (AX)(R11*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (BX)
	VMOVUPD    Y1, (BX)(R8*1)
	VMOVUPD    Y2, (BX)(R8*2)
	VMOVUPD    Y3, (BX)(R10*1)
	ADDQ       $32, AX
	LEAQ       (BX)(R8*4), BX
	DECQ       R12
	JNE        tblock

	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	DECQ CX
	JNE  tband

tdone:
	VZEROUPPER
	RET
