package nn

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
)

// numericGradCheck compares the analytic parameter gradients of a network
// against central finite differences of a scalar loss.
func numericGradCheck(t *testing.T, net *Network, x *mat.Matrix, labels []int, tol float64) {
	t.Helper()
	loss := func() float64 {
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		l, _, err := crossEntropy(logits, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return l
	}
	// Analytic gradients.
	logits, err := net.Forward(x)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	_, grad, err := crossEntropy(logits, labels)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}
	const eps = 1e-5
	for pi, p := range net.Params() {
		data := p.Value.Data()
		gd := p.Grad.Data()
		// Check a subset of coordinates to keep the test fast.
		step := len(data)/7 + 1
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + eps
			up := loss()
			data[i] = orig - eps
			down := loss()
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-gd[i]) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d coord %d: analytic %v numeric %v", pi, i, gd[i], numeric)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewMLP(rng, ActTanh, 6, 5, 3)
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	x := mat.New(4, 6)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 1}
	numericGradCheck(t, net, x, labels, 1e-4)
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewMLP(rng, ActReLU, 5, 8, 3)
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	x := mat.New(3, 5)
	x.Randomize(rng, 1)
	numericGradCheck(t, net, x, []int{2, 0, 1}, 1e-4)
}

func TestDenseForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(rng, 3, 2)
	if d.In() != 3 || d.Out() != 2 {
		t.Fatalf("dims %d/%d", d.In(), d.Out())
	}
	x := mat.New(4, 3)
	y, err := d.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if y.Rows() != 4 || y.Cols() != 2 {
		t.Fatalf("output %dx%d", y.Rows(), y.Cols())
	}
	if _, err := d.Forward(mat.New(1, 5)); err == nil {
		t.Fatal("Forward accepted wrong width")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDense(rng, 2, 2)
	if _, err := d.Backward(mat.New(1, 2)); err == nil {
		t.Fatal("Dense.Backward before Forward should error")
	}
	a := NewActivate(ActReLU)
	if _, err := a.Backward(mat.New(1, 2)); err == nil {
		t.Fatal("Activate.Backward before Forward should error")
	}
}

func TestActivationString(t *testing.T) {
	cases := map[Activation]string{
		ActReLU: "relu", ActTanh: "tanh", ActIdentity: "identity",
	}
	for act, want := range cases {
		if act.String() != want {
			t.Fatalf("%d.String() = %q, want %q", act, act.String(), want)
		}
	}
}

func TestReLUForward(t *testing.T) {
	a := NewActivate(ActReLU)
	x, _ := mat.NewFromData(1, 3, []float64{-1, 0, 2})
	y, err := a.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float64{0, 0, 2}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Input must not be mutated.
	if x.At(0, 0) != -1 {
		t.Fatal("activation mutated its input")
	}
}
