package nn_test

// Numeric gradient checks: backprop gradients are compared against central
// finite differences of the loss for every trainable scalar. Each network is
// checked twice — the first pass runs on freshly allocated layer buffers,
// the second on the recycled ones — and once under a multi-worker kernel
// pool, so the destination-passing refactor cannot silently corrupt
// gradients in any of those modes.

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
	"chiron/internal/nn"
)

// numericVsBackprop computes analytic gradients with one backward pass and
// compares every component against (L(θ+ε)−L(θ−ε))/2ε.
func numericVsBackprop(t *testing.T, net *nn.Network, x *mat.Matrix, labels []int) {
	t.Helper()

	logits, err := net.Forward(x)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	grad := mat.New(logits.Rows(), logits.Cols())
	if _, err := nn.SoftmaxCrossEntropyTo(grad, logits, labels, nil); err != nil {
		t.Fatalf("loss: %v", err)
	}
	net.ZeroGrad()
	if err := net.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}
	analytic := flattenGrads(net)

	theta := net.FlattenParams()
	lossGrad := mat.New(logits.Rows(), logits.Cols())
	probs := make([]float64, logits.Cols())
	lossAt := func() float64 {
		if err := net.LoadParams(theta); err != nil {
			t.Fatalf("load params: %v", err)
		}
		out, err := net.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		loss, err := nn.SoftmaxCrossEntropyTo(lossGrad, out, labels, probs)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return loss
	}

	const eps = 1e-5
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + eps
		lp := lossAt()
		theta[i] = orig - eps
		lm := lossAt()
		theta[i] = orig
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - analytic[i])
		scale := math.Abs(numeric) + math.Abs(analytic[i])
		if diff > 1e-6+1e-4*scale {
			t.Fatalf("param %d: numeric %v vs backprop %v (diff %v)", i, numeric, analytic[i], diff)
		}
	}
	if err := net.LoadParams(theta); err != nil {
		t.Fatalf("restore params: %v", err)
	}
}

func TestGradCheckDenseMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := nn.NewMLP(rng, nn.ActTanh, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(5, 4)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 0, 1}
	// First pass exercises fresh buffers, second the recycled ones.
	numericVsBackprop(t, net, x, labels)
	numericVsBackprop(t, net, x, labels)
}

// TestGradCheckActivations checks each activation fused between two Dense
// layers.
func TestGradCheckActivations(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh, nn.ActIdentity} {
		t.Run(act.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			net, err := nn.NewMLP(rng, act, 3, 8, 2)
			if err != nil {
				t.Fatal(err)
			}
			x := mat.New(4, 3)
			x.Randomize(rng, 1)
			labels := []int{0, 1, 1, 0}
			numericVsBackprop(t, net, x, labels)
			numericVsBackprop(t, net, x, labels)
		})
	}
}

// TestGradCheckParallelWorkers repeats the MLP check with four workers
// configured: gradients must agree with finite differences whatever the
// worker count.
func TestGradCheckParallelWorkers(t *testing.T) {
	mat.SetWorkers(4)
	defer mat.SetWorkers(0)
	rng := rand.New(rand.NewSource(24))
	net, err := nn.NewMLP(rng, nn.ActTanh, 6, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(7, 6)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 3, 0, 1, 2}
	numericVsBackprop(t, net, x, labels)
	numericVsBackprop(t, net, x, labels)
}
