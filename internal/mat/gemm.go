package mat

// Register-tiled Go GEMM micro-kernels. The Matrix kernels (MulTo,
// MulTransATo, MulTransBTo) lower onto these on CPUs without AVX2 and off
// amd64; with AVX2 the assembly kernel computes every column instead
// (strip.go), and its tests use these as the oracle.
//
// Blocking scheme (DESIGN.md §16): each output row is split into column
// blocks of gemmNR elements held in registers, and deep reductions into
// k-tiles of gemmKC so the streamed operand panels stay cache-resident. The
// one invariant every variant preserves is the reduction-order contract:
// each output element accumulates its k products in ascending k order,
// exactly like the naive ikj loops these kernels replaced. Blocking changes
// which element is computed when — never the order of any element's own
// floating-point additions — so results are bit-identical to the unblocked
// kernels.
//
// A k-tile boundary loads the running value back out of dst and continues
// accumulating into registers; the addition sequence per element is the
// same as an unbroken k loop, so tiling is bit-invisible too.

const (
	// gemmNR is the register-block width: output columns accumulated in
	// registers per micro-kernel pass. Eight float64 accumulators plus
	// operand temporaries fit the amd64 XMM file and give eight
	// independent multiply-add chains.
	gemmNR = 8
	// gemmKC is the k-tile depth for the transpose-A kernel, whose k axis
	// is the batch: a dense layer's weight gradient xᵀ·g reduces over every
	// row of a PPO minibatch. A tile of 64 keeps both streamed operand
	// panels (KC×acols of a, KC×bcols of b) L1-resident for the shapes this
	// package serves, so the strided column reads of a hit cache. Tiling is bit-invisible: a tile boundary only moves the
	// running sum through dst, never reorders any element's additions.
	gemmKC = 64
)

// gemm computes dst = a × b, with rows rows in dst and a. Per dst row
// the column axis is walked in gemmNR-wide register blocks; each block
// accumulates its full k reduction in registers (ascending k, matching the
// naive kernel) and stores once. Rows where an a element is zero skip that
// k exactly like the naive kernel, preserving bit-identity in the presence
// of Inf/NaN operands.
func gemm(dst []float64, dcols int, a []float64, acols int, b []float64, bcols int, rows int) {
	for i := 0; i < rows; i++ {
		arow := a[i*acols : (i+1)*acols]
		drow := dst[i*dcols : (i+1)*dcols]
		j := 0
		for ; j+gemmNR <= dcols; j += gemmNR {
			var c0, c1, c2, c3, c4, c5, c6, c7 float64
			off := j
			for _, av := range arow {
				if av == 0 {
					off += bcols
					continue
				}
				bb := b[off : off+gemmNR : off+gemmNR]
				c0 += av * bb[0]
				c1 += av * bb[1]
				c2 += av * bb[2]
				c3 += av * bb[3]
				c4 += av * bb[4]
				c5 += av * bb[5]
				c6 += av * bb[6]
				c7 += av * bb[7]
				off += bcols
			}
			dd := drow[j : j+gemmNR : j+gemmNR]
			dd[0], dd[1], dd[2], dd[3] = c0, c1, c2, c3
			dd[4], dd[5], dd[6], dd[7] = c4, c5, c6, c7
		}
		for ; j+4 <= dcols; j += 4 {
			var c0, c1, c2, c3 float64
			off := j
			for _, av := range arow {
				if av == 0 {
					off += bcols
					continue
				}
				bb := b[off : off+4 : off+4]
				c0 += av * bb[0]
				c1 += av * bb[1]
				c2 += av * bb[2]
				c3 += av * bb[3]
				off += bcols
			}
			dd := drow[j : j+4 : j+4]
			dd[0], dd[1], dd[2], dd[3] = c0, c1, c2, c3
		}
		for ; j < dcols; j++ {
			var c float64
			off := j
			for _, av := range arow {
				if av != 0 {
					c += av * b[off]
				}
				off += bcols
			}
			drow[j] = c
		}
	}
}

// gemmTransB computes dst = a × bᵀ, with rows rows in dst and a, as
// register-blocked row dot products: eight output columns (rows of b)
// accumulate concurrently, each over k ascending, sharing every arow load.
// Unlike the other two kernels it has no a==0 skip.
func gemmTransB(dst []float64, dcols int, a []float64, acols int, b []float64, brows int, rows int) {
	for i := 0; i < rows; i++ {
		arow := a[i*acols : (i+1)*acols : (i+1)*acols]
		drow := dst[i*dcols : (i+1)*dcols]
		j := 0
		for ; j+8 <= brows; j += 8 {
			b0 := b[j*acols : (j+1)*acols : (j+1)*acols]
			b1 := b[(j+1)*acols : (j+2)*acols : (j+2)*acols]
			b2 := b[(j+2)*acols : (j+3)*acols : (j+3)*acols]
			b3 := b[(j+3)*acols : (j+4)*acols : (j+4)*acols]
			b4 := b[(j+4)*acols : (j+5)*acols : (j+5)*acols]
			b5 := b[(j+5)*acols : (j+6)*acols : (j+6)*acols]
			b6 := b[(j+6)*acols : (j+7)*acols : (j+7)*acols]
			b7 := b[(j+7)*acols : (j+8)*acols : (j+8)*acols]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			dd := drow[j : j+8 : j+8]
			dd[0], dd[1], dd[2], dd[3] = s0, s1, s2, s3
			dd[4], dd[5], dd[6], dd[7] = s4, s5, s6, s7
		}
		for ; j+2 <= brows; j += 2 {
			b0 := b[j*acols : (j+1)*acols : (j+1)*acols]
			b1 := b[(j+1)*acols : (j+2)*acols : (j+2)*acols]
			var s0, s1 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
			}
			dd := drow[j : j+2 : j+2]
			dd[0], dd[1] = s0, s1
		}
		for ; j < brows; j++ {
			brow := b[j*acols : (j+1)*acols : (j+1)*acols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// gemmTransA computes dst = aᵀ × b, with rows rows in dst (output row i
// reads column i of a). The k axis is tiled at gemmKC: within a tile, a
// gemmNR register block accumulates ascending-k products on top of the
// running dst values loaded at tile entry, so the per-element addition
// sequence is the unbroken ascending-k chain of the naive kernel. The
// a[k][i]==0 skip of the naive kernel is preserved. An empty reduction
// (arows == 0) zeroes the columns.
func gemmTransA(dst []float64, dcols int, a []float64, acols, arows int, b []float64, bcols int, rows int) {
	if arows == 0 {
		for i := 0; i < rows; i++ {
			clear(dst[i*dcols : (i+1)*dcols])
		}
	}
	for k0 := 0; k0 < arows; k0 += gemmKC {
		k1 := k0 + gemmKC
		if k1 > arows {
			k1 = arows
		}
		first := k0 == 0
		for i := 0; i < rows; i++ {
			drow := dst[i*dcols : (i+1)*dcols]
			j := 0
			for ; j+gemmNR <= dcols; j += gemmNR {
				var c0, c1, c2, c3, c4, c5, c6, c7 float64
				if !first {
					dd := drow[j : j+gemmNR : j+gemmNR]
					c0, c1, c2, c3 = dd[0], dd[1], dd[2], dd[3]
					c4, c5, c6, c7 = dd[4], dd[5], dd[6], dd[7]
				}
				aoff := k0*acols + i
				boff := k0*bcols + j
				for k := k0; k < k1; k++ {
					av := a[aoff]
					aoff += acols
					if av == 0 {
						boff += bcols
						continue
					}
					bb := b[boff : boff+gemmNR : boff+gemmNR]
					c0 += av * bb[0]
					c1 += av * bb[1]
					c2 += av * bb[2]
					c3 += av * bb[3]
					c4 += av * bb[4]
					c5 += av * bb[5]
					c6 += av * bb[6]
					c7 += av * bb[7]
					boff += bcols
				}
				dd := drow[j : j+gemmNR : j+gemmNR]
				dd[0], dd[1], dd[2], dd[3] = c0, c1, c2, c3
				dd[4], dd[5], dd[6], dd[7] = c4, c5, c6, c7
			}
			for ; j < dcols; j++ {
				var c float64
				if !first {
					c = drow[j]
				}
				aoff := k0*acols + i
				boff := k0*bcols + j
				for k := k0; k < k1; k++ {
					av := a[aoff]
					aoff += acols
					if av != 0 {
						c += av * b[boff]
					}
					boff += bcols
				}
				drow[j] = c
			}
		}
	}
}
