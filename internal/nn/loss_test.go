package nn

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
)

// crossEntropy runs SoftmaxCrossEntropyTo into a fresh gradient matrix.
func crossEntropy(logits *mat.Matrix, labels []int) (float64, *mat.Matrix, error) {
	grad := mat.New(logits.Rows(), logits.Cols())
	loss, err := SoftmaxCrossEntropyTo(grad, logits, labels, nil)
	return loss, grad, err
}

// mse runs MSETo into a fresh gradient matrix.
func mse(pred, target *mat.Matrix) (float64, *mat.Matrix, error) {
	grad := mat.New(pred.Rows(), pred.Cols())
	loss, err := MSETo(grad, pred, target)
	return loss, grad, err
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	logits := mat.New(1, 4) // all-zero logits = uniform distribution
	loss, grad, err := crossEntropy(logits, []int{2})
	if err != nil {
		t.Fatalf("crossEntropy: %v", err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient: softmax − onehot = 0.25 everywhere except −0.75 at label.
	want := []float64{0.25, 0.25, -0.75, 0.25}
	for i, g := range grad.Row(0) {
		if math.Abs(g-want[i]) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", i, g, want[i])
		}
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := mat.New(5, 7)
	logits.Randomize(rng, 3)
	labels := []int{0, 6, 3, 2, 1}
	_, grad, err := crossEntropy(logits, labels)
	if err != nil {
		t.Fatalf("crossEntropy: %v", err)
	}
	for r := 0; r < grad.Rows(); r++ {
		var sum float64
		for _, g := range grad.Row(r) {
			sum += g
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d gradient sums to %v, want 0", r, sum)
		}
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	logits := mat.New(2, 3)
	if _, _, err := crossEntropy(logits, []int{0}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
	if _, _, err := crossEntropy(logits, []int{0, 5}); err == nil {
		t.Fatal("accepted out-of-range label")
	}
	if _, _, err := crossEntropy(logits, []int{0, -1}); err == nil {
		t.Fatal("accepted negative label")
	}
}

func TestCrossEntropyEmptyBatch(t *testing.T) {
	loss, grad, err := crossEntropy(mat.New(0, 3), nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if loss != 0 || grad.Rows() != 0 {
		t.Fatalf("empty batch loss %v rows %d", loss, grad.Rows())
	}
}

func TestMSE(t *testing.T) {
	pred, _ := mat.NewFromData(1, 2, []float64{1, 3})
	target, _ := mat.NewFromData(1, 2, []float64{0, 0})
	loss, grad, err := mse(pred, target)
	if err != nil {
		t.Fatalf("mse: %v", err)
	}
	if math.Abs(loss-5) > 1e-12 { // (1+9)/2
		t.Fatalf("loss = %v, want 5", loss)
	}
	if math.Abs(grad.At(0, 0)-1) > 1e-12 || math.Abs(grad.At(0, 1)-3) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data())
	}
}

func TestMSEShapeError(t *testing.T) {
	if _, _, err := mse(mat.New(1, 2), mat.New(2, 1)); err == nil {
		t.Fatal("mse accepted mismatched shapes")
	}
}

func TestAccuracy(t *testing.T) {
	logits, _ := mat.NewFromData(3, 2, []float64{
		2, 1, // pred 0
		0, 5, // pred 1
		3, 4, // pred 1
	})
	acc, err := Accuracy(logits, []int{0, 1, 0})
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v, want 2/3", acc)
	}
	if _, err := Accuracy(logits, []int{0}); err == nil {
		t.Fatal("Accuracy accepted mismatched labels")
	}
	empty, err := Accuracy(mat.New(0, 2), nil)
	if err != nil || empty != 0 {
		t.Fatalf("empty accuracy = %v, %v", empty, err)
	}
}
