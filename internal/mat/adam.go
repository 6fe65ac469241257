package mat

// AdamCoeffs are the scalars of one Adam step: the moment decays B1 and B2,
// their complements C1 = 1−B1 and C2 = 1−B2, the bias corrections BC1 and
// BC2, the learning rate and ε. The amd64 kernel reads them in this field
// order.
type AdamCoeffs struct {
	B1, C1, B2, C2, BC1, BC2, LR, Eps float64
}

// AdamStepVec applies one Adam step to the leading elements of p that the
// AVX2 kernel covers, with gradients g and moments m and v, and returns how
// many it updated: len(p) rounded down to a multiple of 4 with AVX2, 0
// without. Per element it runs the caller's scalar update in the same
// operation order, so the caller finishes p[n:] with that loop and the
// result is bit-identical to running the loop throughout. g, m and v must
// be at least as long as p.
func AdamStepVec(p, g, m, v []float64, c *AdamCoeffs) int {
	n := len(p) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	_, _, _ = g[n-1], m[n-1], v[n-1]
	adamStep(&p[0], &g[0], &m[0], &v[0], n, c)
	return n
}
