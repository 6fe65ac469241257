// Package nn is a from-scratch float64 neural-network library built for
// the Chiron reproduction. It provides the MLP networks, losses and
// optimizers (SGD, Adam) needed by the PPO actor/critic networks of the
// hierarchical reinforcement mechanism and by the MLP classifier of the
// real FedAvg workload. A network runs through one fused execution plan
// (fused.go), bit-identical to running its Dense and Activate layers one
// by one; the layers keep their own Forward and Backward as the reference
// the plan is tested against.
//
// Design: layers implement forward/backward over mini-batches stored as
// row-major mat.Matrix values (one sample per row). Parameters are exposed
// as (param, grad) pairs so that optimizers and the FedAvg parameter-vector
// codec can treat every model uniformly.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/mat"
)

// Param couples a trainable tensor with its gradient accumulator.
type Param struct {
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// Layer is a differentiable computation over a batch of samples.
//
// Layers run on the destination-passing compute path: the matrices returned
// by Forward and Backward are owned by the layer and recycled on its next
// Forward/Backward call. Callers that need a result to survive past the next
// pass must copy it (CopyFrom into a matrix it owns).
type Layer interface {
	// Forward consumes a batch (one sample per row) and returns the layer
	// output. Implementations may retain the input for the backward pass
	// and reuse the returned matrix on subsequent calls.
	Forward(x *mat.Matrix) (*mat.Matrix, error)
	// Backward consumes the gradient of the loss with respect to the layer
	// output and returns the gradient with respect to the layer input,
	// accumulating parameter gradients along the way. The returned matrix
	// is reused on subsequent calls.
	Backward(grad *mat.Matrix) (*mat.Matrix, error)
	// Params returns the trainable parameters, or nil for stateless layers.
	Params() []Param
}

// Dense is a fully connected layer computing y = x·W + b.
type Dense struct {
	in, out int
	w, b    Param
	lastX   *mat.Matrix
	// Recycled buffers: output, input gradient, dW scratch, bias sums.
	y, dx, dw *mat.Matrix
	sums      []float64
}

var _ Layer = (*Dense)(nil)

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		in:  in,
		out: out,
		w:   Param{Value: mat.New(in, out), Grad: mat.New(in, out)},
		b:   Param{Value: mat.New(1, out), Grad: mat.New(1, out)},
	}
	d.w.Value.XavierInit(rng, in, out)
	return d
}

// In reports the input width.
func (d *Dense) In() int { return d.in }

// Out reports the output width.
func (d *Dense) Out() int { return d.out }

// Forward implements Layer.
func (d *Dense) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != d.in {
		return nil, fmt.Errorf("nn: dense forward: input width %d, want %d", x.Cols(), d.in)
	}
	d.lastX = x
	d.y = mat.Ensure(d.y, x.Rows(), d.out)
	if err := mat.MulTo(d.y, x, d.w.Value); err != nil {
		return nil, fmt.Errorf("nn: dense forward: %w", err)
	}
	if err := mat.AddRowVector(d.y, d.b.Value.Row(0)); err != nil {
		return nil, fmt.Errorf("nn: dense forward bias: %w", err)
	}
	return d.y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *mat.Matrix) (*mat.Matrix, error) {
	if d.lastX == nil {
		return nil, fmt.Errorf("nn: dense backward before forward")
	}
	// dW += xᵀ·grad
	d.dw = mat.Ensure(d.dw, d.in, d.out)
	if err := mat.MulTransATo(d.dw, d.lastX, grad); err != nil {
		return nil, fmt.Errorf("nn: dense backward dW: %w", err)
	}
	if err := d.w.Grad.AddScaled(d.dw, 1); err != nil {
		return nil, fmt.Errorf("nn: dense backward accumulate dW: %w", err)
	}
	// db += column sums of grad
	bias := d.b.Grad.Row(0)
	d.sums = mat.EnsureVec(d.sums, d.out)
	if err := grad.SumRowsTo(d.sums); err != nil {
		return nil, fmt.Errorf("nn: dense backward db: %w", err)
	}
	for i, v := range d.sums {
		bias[i] += v
	}
	// dx = grad·Wᵀ
	d.dx = mat.Ensure(d.dx, grad.Rows(), d.in)
	if err := mat.MulTransBTo(d.dx, grad, d.w.Value); err != nil {
		return nil, fmt.Errorf("nn: dense backward dx: %w", err)
	}
	return d.dx, nil
}

// Params implements Layer.
func (d *Dense) Params() []Param { return []Param{d.w, d.b} }

// Activation identifies an elementwise nonlinearity.
type Activation int

// Supported activations. Enums start at one so the zero value is invalid.
const (
	ActReLU Activation = iota + 1
	ActTanh
	ActIdentity
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	case ActIdentity:
		return "identity"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// Activate is an elementwise activation layer.
type Activate struct {
	kind  Activation
	lastY *mat.Matrix
	dx    *mat.Matrix
}

var _ Layer = (*Activate)(nil)

// NewActivate returns an activation layer of the given kind.
func NewActivate(kind Activation) *Activate { return &Activate{kind: kind} }

// Forward implements Layer.
func (a *Activate) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	y := mat.Ensure(a.lastY, x.Rows(), x.Cols())
	var err error
	switch a.kind {
	case ActReLU:
		err = mat.ApplyTo(y, x, relu)
	case ActTanh:
		err = mat.ApplyTo(y, x, tanh)
	case ActIdentity:
		err = y.CopyFrom(x)
	default:
		return nil, fmt.Errorf("nn: unknown activation %v", a.kind)
	}
	if err != nil {
		return nil, fmt.Errorf("nn: activation forward: %w", err)
	}
	a.lastY = y
	return y, nil
}

// Backward implements Layer.
func (a *Activate) Backward(grad *mat.Matrix) (*mat.Matrix, error) {
	if a.lastY == nil {
		return nil, fmt.Errorf("nn: activation backward before forward")
	}
	a.dx = mat.Ensure(a.dx, grad.Rows(), grad.Cols())
	dx := a.dx
	if err := dx.CopyFrom(grad); err != nil {
		return nil, fmt.Errorf("nn: activation backward: %w", err)
	}
	yd := a.lastY.Data()
	xd := dx.Data()
	switch a.kind {
	case ActReLU:
		for i := range xd {
			if yd[i] <= 0 {
				xd[i] = 0
			}
		}
	case ActTanh:
		for i := range xd {
			xd[i] *= 1 - yd[i]*yd[i]
		}
	case ActIdentity:
	default:
		return nil, fmt.Errorf("nn: unknown activation %v", a.kind)
	}
	return dx, nil
}

// Params implements Layer.
func (a *Activate) Params() []Param { return nil }

func tanh(v float64) float64 {
	// math.Tanh is accurate and fast enough for our layer sizes.
	return math.Tanh(v)
}

func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
