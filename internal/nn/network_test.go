package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"chiron/internal/mat"
)

// flattenGrads serializes all of net's gradients into one vector.
func flattenGrads(net *Network) []float64 {
	out := make([]float64, 0, net.NumParams())
	for _, p := range net.Params() {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

func TestMLPRejectsTooFewWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(rng, ActTanh, 4); err == nil {
		t.Fatal("NewMLP accepted a single width")
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, err := NewMLP(rng, ActReLU, 4, 6, 3)
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	b, err := NewMLP(rng, ActReLU, 4, 6, 3)
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	flat := a.FlattenParams()
	if len(flat) != a.NumParams() {
		t.Fatalf("flat len %d, want %d", len(flat), a.NumParams())
	}
	if err := b.LoadParams(flat); err != nil {
		t.Fatalf("LoadParams: %v", err)
	}
	x := mat.New(2, 4)
	x.Randomize(rng, 1)
	ya, err := a.Forward(x)
	if err != nil {
		t.Fatalf("forward a: %v", err)
	}
	yb, err := b.Forward(x)
	if err != nil {
		t.Fatalf("forward b: %v", err)
	}
	for i := range ya.Data() {
		if ya.Data()[i] != yb.Data()[i] {
			t.Fatal("loaded network disagrees with source")
		}
	}
}

func TestLoadParamsSizeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, _ := NewMLP(rng, ActTanh, 2, 2)
	if err := net.LoadParams(make([]float64, 3)); err == nil {
		t.Fatal("LoadParams accepted wrong size")
	}
}

// TestZeroGrad pins why the network needs no ZeroGrad: Backward overwrites
// the gradients instead of adding to them, so a batch's Backward gives the
// same gradient bits after another batch's Backward as on fresh gradients,
// not their sum.
func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, _ := NewMLP(rng, ActTanh, 3, 4, 2)
	backward := func(x *mat.Matrix, labels []int) []float64 {
		logits, _ := net.Forward(x)
		_, grad, _ := crossEntropy(logits, labels)
		if err := net.Backward(grad); err != nil {
			t.Fatalf("Backward: %v", err)
		}
		return flattenGrads(net)
	}
	x, y := mat.New(2, 3), mat.New(2, 3)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	first := backward(x, []int{0, 1})
	var nonzero bool
	for _, g := range first {
		nonzero = nonzero || g != 0
	}
	if !nonzero {
		t.Fatal("backward produced all-zero gradients")
	}
	other := backward(y, []int{1, 1})
	for i, g := range backward(x, []int{0, 1}) {
		if math.Float64bits(g) != math.Float64bits(first[i]) {
			t.Fatalf("grad %d = %v after another batch and the first again, first Backward gave %v", i, g, first[i])
		}
	}
	if slices.Equal(other, first) {
		t.Fatal("two different batches gave the same gradients")
	}
}

// TestClipGradNorm pins the clip scale: for gradients whose global norm
// exceeds maxNorm it is maxNorm/norm, which scales the norm to maxNorm, and
// the gradients themselves are left alone.
func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, _ := NewMLP(rng, ActTanh, 3, 3, 2)
	for _, p := range net.Params() {
		p.Grad.Fill(10)
	}
	scale := net.GradClipScale(1.0)
	var sq float64
	for _, g := range flattenGrads(net) {
		if g != 10 {
			t.Fatalf("GradClipScale changed a gradient to %v", g)
		}
		sq += (g * scale) * (g * scale)
	}
	if want := 1 / math.Sqrt(float64(100*net.NumParams())); scale != want {
		t.Fatalf("clip scale %v, want 1/norm = %v", scale, want)
	}
	if math.Abs(math.Sqrt(sq)-1.0) > 1e-9 {
		t.Fatalf("scaled norm %v, want 1", math.Sqrt(sq))
	}
}

// TestClipGradNormBelowThresholdUntouched pins the scale at exactly 1 when
// the norm is within maxNorm, when maxNorm is not positive, and when the
// norm is NaN: Adam.Step then multiplies every gradient by 1, which leaves
// it bit for bit.
func TestClipGradNormBelowThresholdUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net, _ := NewMLP(rng, ActTanh, 2, 2)
	for _, p := range net.Params() {
		p.Grad.Fill(1e-6)
	}
	for _, maxNorm := range []float64{10, 0, -1} {
		if s := net.GradClipScale(maxNorm); s != 1 {
			t.Fatalf("maxNorm %v: clip scale %v, want 1", maxNorm, s)
		}
	}
	for _, g := range flattenGrads(net) {
		if g != 1e-6 {
			t.Fatal("GradClipScale modified small gradients")
		}
	}
	net.Params()[0].Grad.Set(0, 0, math.NaN())
	if s := net.GradClipScale(1e-9); s != 1 {
		t.Fatalf("NaN norm: clip scale %v, want 1 (no clipping)", s)
	}
}

// TestSGDReducesLoss trains a tiny MLP on a separable problem and checks
// the loss drops substantially.
func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, _ := NewMLP(rng, ActTanh, 2, 8, 2)
	x := mat.New(40, 2)
	labels := make([]int, 40)
	for i := 0; i < 40; i++ {
		cls := i % 2
		labels[i] = cls
		x.Set(i, 0, float64(2*cls-1)+rng.NormFloat64()*0.2)
		x.Set(i, 1, float64(1-2*cls)+rng.NormFloat64()*0.2)
	}
	opt := NewSGD(net.Params(), 0.5, 0.9)
	var first, last float64
	for step := 0; step < 60; step++ {
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		loss, grad, err := crossEntropy(logits, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		if err := net.Backward(grad); err != nil {
			t.Fatalf("backward: %v", err)
		}
		if err := opt.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if last > first/4 {
		t.Fatalf("SGD failed to learn: first %v last %v", first, last)
	}
}

// TestAdamReducesLoss mirrors the SGD test with Adam.
func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, _ := NewMLP(rng, ActReLU, 2, 8, 2)
	x := mat.New(30, 2)
	labels := make([]int, 30)
	for i := range labels {
		cls := i % 2
		labels[i] = cls
		x.Set(i, 0, float64(2*cls-1)+rng.NormFloat64()*0.3)
		x.Set(i, 1, rng.NormFloat64()*0.3)
	}
	opt := NewAdam(net.Params(), 0.05)
	var first, last float64
	for step := 0; step < 80; step++ {
		logits, _ := net.Forward(x)
		loss, grad, _ := crossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		if err := net.Backward(grad); err != nil {
			t.Fatalf("backward: %v", err)
		}
		if err := opt.Step(1); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if last > first/4 {
		t.Fatalf("Adam failed to learn: first %v last %v", first, last)
	}
}

// Property: LoadParams(FlattenParams()) is the identity on network outputs
// for random parameter vectors.
func TestParamVectorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net, err := NewMLP(r, ActTanh, 3, 4, 2)
		if err != nil {
			return false
		}
		flat := net.FlattenParams()
		// Perturb, load, flatten again: must round-trip exactly.
		for i := range flat {
			flat[i] += r.NormFloat64()
		}
		if err := net.LoadParams(flat); err != nil {
			return false
		}
		got := net.FlattenParams()
		for i := range flat {
			if got[i] != flat[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifierStepAllocsZero pins the RealTraining inner loop of
// fl.Client.TrainRound at zero steady-state allocations: a 64-32-10
// classifier's forward pass, softmax cross-entropy and backward pass on a
// batch of 10 reuse the network's recycled workspaces. GEMMs run on their
// caller, so the contract holds at any worker count.
func TestClassifierStepAllocsZero(t *testing.T) {
	defer mat.SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	net, err := NewClassifierMLP(rng, 64, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(10, 64)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	grad := mat.New(10, 10)
	probs := make([]float64, 10)
	step := func() {
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SoftmaxCrossEntropyTo(grad, logits, labels, probs); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		mat.SetWorkers(workers)
		step() // size the workspaces
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("workers=%d: %v allocs per training step, want 0", workers, allocs)
		}
	}
}
