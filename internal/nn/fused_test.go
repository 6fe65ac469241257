package nn_test

// Fused-path pins. The fused plan claims bit-identity with layered
// execution, so these tests compare it against running the same layer
// objects one by one — exact equality, no tolerances. Every comparison runs
// twice (fresh workspaces, then recycled) and again under a 4-worker kernel
// pool.

import (
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

// layeredForwardBackward runs the network's layers one by one, bypassing the
// fused plan, and returns a copy of the output and the flattened gradients.
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
	net.ZeroGrad()
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
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh, nn.ActSigmoid} {
		rng := rand.New(rand.NewSource(31))
		net, err := nn.NewMLP(rng, act, 6, 8, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		fused := net.Fused()
		if fused == nil {
			t.Fatal("MLP stack did not fuse")
		}
		x := mat.New(7, 6)
		x.Randomize(rng, 1)
		grad := mat.New(7, 3)
		grad.Randomize(rng, 1)

		for pass := 0; pass < 2; pass++ { // fresh workspaces, then recycled
			wantY, wantG := layeredForwardBackward(t, net, x, grad)
			gotY, err := fused.Forward(x)
			if err != nil {
				t.Fatalf("act %v pass %d: fused forward: %v", act, pass, err)
			}
			for i, w := range wantY.Data() {
				if gotY.Data()[i] != w {
					t.Fatalf("act %v pass %d: output[%d] fused %v layered %v", act, pass, i, gotY.Data()[i], w)
				}
			}
			net.ZeroGrad()
			if _, err := fused.Backward(grad, true); err != nil {
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

// TestFusedBackwardParamsOnlyMatchesFull pins that skipping the first
// unit's input-gradient GEMM changes nothing observable: parameter
// gradients are bit-identical to the full backward pass. The layered case
// starts with an activation, so it does not fuse and runs Network's layered
// BackwardParamsOnly.
func TestFusedBackwardParamsOnlyMatchesFull(t *testing.T) {
	for _, layered := range []bool{false, true} {
		rng := rand.New(rand.NewSource(32))
		var layers []nn.Layer
		if layered {
			layers = append(layers, nn.NewActivate(nn.ActTanh))
		}
		layers = append(layers, nn.NewDense(rng, 5, 9), nn.NewActivate(nn.ActTanh), nn.NewDense(rng, 9, 4))
		net := nn.NewNetwork(layers...)
		if (net.Fused() == nil) != layered {
			t.Fatalf("layered=%v: fused plan %v", layered, net.Fused())
		}
		x := mat.New(6, 5)
		x.Randomize(rng, 1)
		grad := mat.New(6, 4)
		grad.Randomize(rng, 1)

		for pass := 0; pass < 2; pass++ {
			if _, err := net.Forward(x); err != nil {
				t.Fatal(err)
			}
			net.ZeroGrad()
			if _, err := net.Backward(grad); err != nil {
				t.Fatal(err)
			}
			want := flattenGrads(net)
			net.ZeroGrad()
			if err := net.BackwardParamsOnly(grad); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if g := flattenGrads(net)[i]; g != w {
					t.Fatalf("layered=%v pass %d: grad[%d] params-only %v full %v", layered, pass, i, g, w)
				}
			}
		}
	}
}

// TestFusedVsLayeredParallelWorkers repeats the bit-identity pin under a
// 4-worker kernel pool: row banding must not open any fused/layered gap.
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
		net.ZeroGrad()
		if _, err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		for i, w := range wantG {
			if g := flattenGrads(net)[i]; g != w {
				t.Fatalf("pass %d: grad[%d] fused %v layered %v", pass, i, g, w)
			}
		}
	}
}
