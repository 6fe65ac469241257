package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level benchmarks at the shapes the agent stack actually runs: the
// N=5 policy/critic MLP layers (update batches of ~90–116 samples in
// train-n5, widths 62→64→64 then the 5-wide policy head or the 1-wide value
// head) and the N=100 agents' wide layers (batch 64, a 1202-dim exterior
// state, a 100-wide inner head). These pin the GEMM kernels directly, below
// the nn layer; the narrow heads are the dst widths mod 8.

func benchMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

// benchTiers runs bench as one sub-benchmark per kernel this CPU can run;
// a nil kernel is the Go kernels.
func benchTiers(b *testing.B, bench func(b *testing.B, kern kernelFunc)) {
	b.Run("go", func(b *testing.B) { bench(b, nil) })
	for _, tier := range simdTiers {
		if tier.have {
			b.Run(tier.name, func(b *testing.B) { bench(b, tier.kern) })
		}
	}
}

func BenchmarkGemmMulTo(b *testing.B) {
	cases := []struct{ m, k, n int }{
		{100, 62, 64},  // policy MLP input layer
		{100, 64, 64},  // policy MLP hidden layer
		{100, 64, 5},   // N=5 policy head
		{100, 64, 1},   // value head
		{64, 1202, 64}, // N=100 exterior input layer
	}
	for _, cs := range cases {
		b.Run(fmt.Sprintf("%dx%dx%d", cs.m, cs.k, cs.n), func(b *testing.B) {
			benchTiers(b, func(b *testing.B, kern kernelFunc) {
				rng := rand.New(rand.NewSource(1))
				a := benchMatrix(rng, cs.m, cs.k)
				bb := benchMatrix(rng, cs.k, cs.n)
				dst := New(cs.m, cs.n)
				b.SetBytes(int64(8 * cs.m * cs.k * cs.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := mulTo(kern, dst, a, bb); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkGemmMulTransATo(b *testing.B) {
	cases := []struct{ m, k, n int }{
		{62, 100, 64},  // dW of the input layer: xᵀ × grad
		{64, 100, 64},  // dW of a hidden layer
		{64, 100, 5},   // dW of the N=5 policy head
		{64, 100, 1},   // dW of the value head
		{1202, 64, 64}, // dW of the N=100 exterior input layer
	}
	for _, cs := range cases {
		b.Run(fmt.Sprintf("%dx%dx%d", cs.m, cs.k, cs.n), func(b *testing.B) {
			benchTiers(b, func(b *testing.B, kern kernelFunc) {
				rng := rand.New(rand.NewSource(1))
				a := benchMatrix(rng, cs.k, cs.m)
				bb := benchMatrix(rng, cs.k, cs.n)
				dst := New(cs.m, cs.n)
				b.SetBytes(int64(8 * cs.m * cs.k * cs.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := mulTransATo(kern, dst, a, bb); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkGemmMulTransBTo(b *testing.B) {
	cases := []struct{ m, k, n int }{
		{100, 64, 64}, // dx through a hidden layer: grad × Wᵀ
		{64, 100, 64}, // dx through the N=100 inner head: grad × Wᵀ
	}
	for _, cs := range cases {
		b.Run(fmt.Sprintf("%dx%dx%d", cs.m, cs.k, cs.n), func(b *testing.B) {
			benchTiers(b, func(b *testing.B, kern kernelFunc) {
				rng := rand.New(rand.NewSource(1))
				a := benchMatrix(rng, cs.m, cs.k)
				bb := benchMatrix(rng, cs.n, cs.k)
				dst := New(cs.m, cs.n)
				b.SetBytes(int64(8 * cs.m * cs.k * cs.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := mulTransBTo(kern, dst, a, bb); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
