package nn_test

// Fused-path pins. The fused plan claims bit-identity with layered
// execution, so these tests compare it against running the same layer
// objects one by one — exact equality, no tolerances. Every comparison runs
// twice (fresh workspaces, then recycled) and again under a 4-worker kernel
// pool.

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
	"chiron/internal/nn"
)

// flattenGrads serializes all of net's gradients into one vector.
func flattenGrads(net *nn.Network) []float64 {
	out := make([]float64, 0, net.NumParams())
	for _, p := range net.Params() {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

// zeroGrads sets every gradient of net to +0.
func zeroGrads(net *nn.Network) {
	for _, p := range net.Params() {
		p.Grad.Zero()
	}
}

// layeredForwardBackward runs the network's layers one by one, bypassing the
// fused plan, and returns a copy of the output and the flattened gradients.
// The layers accumulate into the gradients, so it zeroes them first: this
// is the zero-then-accumulate path the fused Backward's in-place writes
// must reproduce.
func layeredForwardBackward(t *testing.T, net *nn.Network, x, grad *mat.Matrix) (*mat.Matrix, []float64) {
	t.Helper()
	cur := x
	var err error
	for i, l := range net.Layers() {
		if cur, err = l.Forward(cur); err != nil {
			t.Fatalf("layer %d forward: %v", i, err)
		}
	}
	out := mat.New(cur.Rows(), cur.Cols())
	if err := out.CopyFrom(cur); err != nil {
		t.Fatal(err)
	}
	zeroGrads(net)
	g := grad
	layers := net.Layers()
	for i := len(layers) - 1; i >= 0; i-- {
		if g, err = layers[i].Backward(g); err != nil {
			t.Fatalf("layer %d backward: %v", i, err)
		}
	}
	return out, flattenGrads(net)
}

// TestFusedVsLayeredBitIdentical pins the fused plan's core claim: forward
// outputs and parameter gradients are bit-for-bit equal to layered
// execution over the same layer objects.
func TestFusedVsLayeredBitIdentical(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh, nn.ActIdentity} {
		rng := rand.New(rand.NewSource(31))
		net, err := nn.NewMLP(rng, act, 6, 8, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		x := mat.New(7, 6)
		x.Randomize(rng, 1)
		grad := mat.New(7, 3)
		grad.Randomize(rng, 1)

		for pass := 0; pass < 2; pass++ { // fresh workspaces, then recycled
			wantY, wantG := layeredForwardBackward(t, net, x, grad)
			gotY, err := net.Forward(x)
			if err != nil {
				t.Fatalf("act %v pass %d: fused forward: %v", act, pass, err)
			}
			for i, w := range wantY.Data() {
				if gotY.Data()[i] != w {
					t.Fatalf("act %v pass %d: output[%d] fused %v layered %v", act, pass, i, gotY.Data()[i], w)
				}
			}
			if err := net.Backward(grad); err != nil {
				t.Fatalf("act %v pass %d: fused backward: %v", act, pass, err)
			}
			for i, w := range wantG {
				if g := flattenGrads(net)[i]; g != w {
					t.Fatalf("act %v pass %d: grad[%d] fused %v layered %v", act, pass, i, g, w)
				}
			}
		}
	}
}

// TestFusedNewPlanSharesParameters pins the second plan a network hands out: it
// computes the network's own outputs from the same parameters, and a
// forward pass through it leaves the network's pending backward alone.
func TestFusedNewPlanSharesParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net, err := nn.NewMLP(rng, nn.ActTanh, 5, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(6, 5)
	x.Randomize(rng, 1)
	other := mat.New(3, 5)
	other.Randomize(rng, 1)
	grad := mat.New(6, 4)
	grad.Randomize(rng, 1)
	wantY, wantG := layeredForwardBackward(t, net, x, grad)

	plan := net.NewPlan()
	gotY, err := plan.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wantY.Data() {
		if gotY.Data()[i] != w {
			t.Fatalf("output[%d] second plan %v layered %v", i, gotY.Data()[i], w)
		}
	}
	if _, err := net.Forward(x); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Forward(other); err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	for i, w := range wantG {
		if g := flattenGrads(net)[i]; g != w {
			t.Fatalf("grad[%d] after a second-plan forward %v, layered %v", i, g, w)
		}
	}
}

// TestFusedVsLayeredParallelWorkers repeats the bit-identity pin with four
// workers configured: the worker count must not open any fused/layered
// gap.
func TestFusedVsLayeredParallelWorkers(t *testing.T) {
	mat.SetWorkers(4)
	defer mat.SetWorkers(0)
	rng := rand.New(rand.NewSource(34))
	net, err := nn.NewMLP(rng, nn.ActTanh, 16, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(24, 16)
	x.Randomize(rng, 1)
	grad := mat.New(24, 8)
	grad.Randomize(rng, 1)
	for pass := 0; pass < 2; pass++ {
		wantY, wantG := layeredForwardBackward(t, net, x, grad)
		gotY, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range wantY.Data() {
			if gotY.Data()[i] != w {
				t.Fatalf("pass %d: output[%d] fused %v layered %v", pass, i, gotY.Data()[i], w)
			}
		}
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		for i, w := range wantG {
			if g := flattenGrads(net)[i]; g != w {
				t.Fatalf("pass %d: grad[%d] fused %v layered %v", pass, i, g, w)
			}
		}
	}
}

// TestBackwardOverwritesGrads pins the fused Backward's contract: it writes
// every parameter gradient in place, whatever the gradients held, with the
// bits of zeroing them and accumulating one batch, the layered path. The
// gradients start as garbage (NaN, ±0, ±1e300, ±Inf); the batch has an
// all-zero input column, whose weight-gradient row the GEMM skips to +0,
// and an output-gradient column of −0s, whose bias gradient sums to +0. It
// runs every activation, and a one-unit network, whose only unit is the
// first and stops after its dW and db.
func TestBackwardOverwritesGrads(t *testing.T) {
	garbage := []float64{math.NaN(), math.Copysign(0, -1), 0, 1e300, -1e300, math.Inf(1), math.Inf(-1)}
	nets := []struct {
		act    nn.Activation
		widths []int
	}{
		{nn.ActReLU, []int{6, 8, 5, 3}},
		{nn.ActTanh, []int{6, 8, 5, 3}},
		{nn.ActIdentity, []int{6, 8, 5, 3}},
		{nn.ActTanh, []int{6, 3}},
	}
	for _, tc := range nets {
		rng := rand.New(rand.NewSource(35))
		net, err := nn.NewMLP(rng, tc.act, tc.widths...)
		if err != nil {
			t.Fatal(err)
		}
		x := mat.New(7, 6)
		x.Randomize(rng, 1)
		grad := mat.New(7, 3)
		grad.Randomize(rng, 1)
		for i := 0; i < 7; i++ {
			x.Set(i, 2, 0)
			grad.Set(i, 1, math.Copysign(0, -1))
		}
		wantY, wantG := layeredForwardBackward(t, net, x, grad)
		for pass := 0; pass < 2; pass++ { // fresh workspaces, then recycled
			k := pass
			for _, p := range net.Params() {
				d := p.Grad.Data()
				for i := range d {
					d[i] = garbage[k%len(garbage)]
					k++
				}
			}
			gotY, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range wantY.Data() {
				if gotY.Data()[i] != w {
					t.Fatalf("act %v widths %v: output[%d] fused %v layered %v", tc.act, tc.widths, i, gotY.Data()[i], w)
				}
			}
			if err := net.Backward(grad); err != nil {
				t.Fatal(err)
			}
			for i, g := range flattenGrads(net) {
				if math.Float64bits(g) != math.Float64bits(wantG[i]) {
					t.Fatalf("act %v widths %v pass %d: grad[%d] = %v (%#x) over garbage, zero-then-accumulate %v (%#x)",
						tc.act, tc.widths, pass, i, g, math.Float64bits(g), wantG[i], math.Float64bits(wantG[i]))
				}
			}
		}
	}
}
