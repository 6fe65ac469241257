package nn

import (
	"fmt"
	"math"

	"chiron/internal/mat"
)

// SoftmaxCrossEntropyTo computes the mean softmax cross-entropy loss for a
// batch of logits (one sample per row) against integer class labels. The
// gradient with respect to the logits is written into grad (same shape as
// logits), already divided by the batch size, so callers can feed it
// straight into Network.Backward. probs, when non-nil, supplies a
// length-Cols scratch slice so steady-state training loops allocate
// nothing.
func SoftmaxCrossEntropyTo(grad, logits *mat.Matrix, labels []int, probs []float64) (loss float64, err error) {
	n := logits.Rows()
	if n != len(labels) {
		return 0, fmt.Errorf("nn: cross-entropy: %d rows, %d labels", n, len(labels))
	}
	if grad == nil || grad.Rows() != n || grad.Cols() != logits.Cols() {
		return 0, fmt.Errorf("nn: cross-entropy: grad buffer does not match %dx%d logits", n, logits.Cols())
	}
	if n == 0 {
		return 0, nil
	}
	classes := logits.Cols()
	if len(probs) != classes {
		probs = make([]float64, classes)
	}
	inv := 1 / float64(n)
	for r := 0; r < n; r++ {
		y := labels[r]
		if y < 0 || y >= classes {
			return 0, fmt.Errorf("nn: cross-entropy: label %d out of range [0,%d)", y, classes)
		}
		row := logits.Row(r)
		if _, err := mat.Softmax(probs, row); err != nil {
			return 0, fmt.Errorf("nn: cross-entropy softmax: %w", err)
		}
		p := probs[y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		g := grad.Row(r)
		for c := 0; c < classes; c++ {
			g[c] = probs[c] * inv
		}
		g[y] -= inv
	}
	return loss * inv, nil
}

// MSETo computes the mean squared error between pred and target. The
// gradient with respect to pred (already divided by the element count) is
// written into grad, which must match pred's shape.
func MSETo(grad, pred, target *mat.Matrix) (loss float64, err error) {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		return 0, fmt.Errorf("nn: mse: pred %dx%d target %dx%d",
			pred.Rows(), pred.Cols(), target.Rows(), target.Cols())
	}
	if grad == nil || grad.Rows() != pred.Rows() || grad.Cols() != pred.Cols() {
		return 0, fmt.Errorf("nn: mse: grad buffer does not match %dx%d pred", pred.Rows(), pred.Cols())
	}
	n := pred.Size()
	if n == 0 {
		return 0, nil
	}
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	inv := 1 / float64(n)
	for i := range pd {
		d := pd[i] - td[i]
		loss += d * d
		gd[i] = 2 * d * inv
	}
	return loss * inv, nil
}

// Accuracy reports the fraction of rows of logits whose argmax matches the
// corresponding label.
func Accuracy(logits *mat.Matrix, labels []int) (float64, error) {
	n := logits.Rows()
	if n != len(labels) {
		return 0, fmt.Errorf("nn: accuracy: %d rows, %d labels", n, len(labels))
	}
	if n == 0 {
		return 0, nil
	}
	var correct int
	for r := 0; r < n; r++ {
		_, idx := mat.MaxVec(logits.Row(r))
		if idx == labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(n), nil
}
