package mat

// AdamCoeffs are the scalars of one Adam step: the moment decays B1 and B2,
// their complements C1 = 1−B1 and C2 = 1−B2, the bias corrections BC1 and
// BC2, the learning rate, ε, and GS, the factor every gradient is
// multiplied by before the moments read it (a gradient-norm clip's scale,
// or 1). The amd64 kernel reads them in this field order.
type AdamCoeffs struct {
	B1, C1, B2, C2, BC1, BC2, LR, Eps, GS float64
}

// AdamStepVec applies one Adam step to the leading elements of p that the
// AVX2 kernel covers, with gradients g and moments m and v, and returns how
// many it updated: len(p) rounded down to a multiple of 4 with AVX2, 0
// without. Per element it gives the bits of the caller's scalar update: the
// same operations in the same order, except that with FMA the divides by
// BC1 and BC2 may be an exact correction with the divide's bits. So the
// caller finishes p[n:] with that loop and the result is bit-identical to
// running the loop throughout. g, m and v must be at least as long as p.
func AdamStepVec(p, g, m, v []float64, c *AdamCoeffs) int {
	return adamStepVec(p, g, m, v, c, haveFMA)
}

// adamStepVec is AdamStepVec with the kernel's divide-free quotients
// allowed (fma, which needs haveFMA) or not. They are taken only for bias
// corrections in [2^-100, 2^100], where the gated dividends' quotients and
// residuals neither overflow nor underflow; Adam's 1 − β^t lie in
// [0.001, 1].
func adamStepVec(p, g, m, v []float64, c *AdamCoeffs, fma bool) int {
	n := len(p) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	_, _, _ = g[n-1], m[n-1], v[n-1]
	fma = fma && inDivFreeRange(c.BC1) && inDivFreeRange(c.BC2)
	adamStep(&p[0], &g[0], &m[0], &v[0], n, c, 1/c.BC1, 1/c.BC2, fma)
	return n
}

// inDivFreeRange reports whether b is a divisor the kernel's FMA quotients
// support; NaN is not.
func inDivFreeRange(b float64) bool { return b >= 0x1p-100 && b <= 0x1p100 }
