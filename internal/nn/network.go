package nn

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/mat"
)

// Network is a multilayer perceptron: a stack of Dense layers with an
// activation between each pair, trained end to end. It runs through one
// fused execution plan (fused.go); the layer objects hold the parameters
// and stay the layer-by-layer reference the plan is tested against.
type Network struct {
	layers []Layer
	params []Param // cached: the layer stack is immutable after construction
	plan   *FusedMLP
}

// NewMLP builds a multilayer perceptron with the given layer widths
// (input, hidden..., output) and the same hidden activation between each
// pair of Dense layers. The output layer is linear.
func NewMLP(rng *rand.Rand, act Activation, widths ...int) (*Network, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output widths, got %d", len(widths))
	}
	n := &Network{}
	units := make([]fusedUnit, len(widths)-1)
	for i := range units {
		d := NewDense(rng, widths[i], widths[i+1])
		units[i] = fusedUnit{dense: d, act: ActIdentity}
		n.layers = append(n.layers, d)
		n.params = append(n.params, d.Params()...)
		if i+1 < len(units) {
			units[i].act = act
			n.layers = append(n.layers, NewActivate(act))
		}
	}
	// Re-slice to exact length so callers appending to the returned slice
	// (to add their own parameters) always reallocate instead of scribbling
	// over a shared backing array.
	n.params = n.params[:len(n.params):len(n.params)]
	n.plan = newFusedMLP(units)
	return n, nil
}

// NewClassifierMLP builds the one-hidden-layer ReLU classifier the real
// FedAvg workload trains on the downscaled synthetic datasets. The paper's
// CNNs enter the simulation only through their upload time
// (device.Node.CommTime, ξ/B), so no convolutional model is built.
func NewClassifierMLP(rng *rand.Rand, inputDim, hidden, classes int) (*Network, error) {
	return NewMLP(rng, ActReLU, inputDim, hidden, classes)
}

// Layers returns the network's layers in forward order. The returned slice
// is a copy; mutating it does not alter the network.
func (n *Network) Layers() []Layer {
	out := make([]Layer, len(n.layers))
	copy(out, n.layers)
	return out
}

// Forward runs a batch through the network.
//
// The returned matrix is a workspace of the network's plan and is reused
// by the next Forward call, so callers that need two forward results alive
// at once (e.g. V(s) and V(s')) must copy the first before computing the
// second.
func (n *Network) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	return n.plan.Forward(x)
}

// Backward propagates the output gradient of the last Forward back through
// the network, accumulating parameter gradients.
func (n *Network) Backward(grad *mat.Matrix) error {
	return n.plan.Backward(grad)
}

// NewPlan returns a second fused plan over the network's parameters with
// its own workspaces, so a forward pass through it leaves the network's
// last forward (and its pending Backward) untouched.
func (n *Network) NewPlan() *FusedMLP { return newFusedMLP(n.plan.units) }

// Params returns all trainable parameters in layer order. The slice is
// cached and shared across calls — callers must not modify its elements
// (appending is safe: the slice is capacity-clipped).
func (n *Network) Params() []Param {
	return n.params
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams reports the total number of trainable scalars.
func (n *Network) NumParams() int {
	var total int
	for _, p := range n.Params() {
		total += p.Value.Size()
	}
	return total
}

// FlattenParams serializes all parameter values into a single vector, the
// representation exchanged between edge nodes and the parameter server.
func (n *Network) FlattenParams() []float64 {
	out := make([]float64, n.NumParams())
	_ = n.FlattenParamsInto(out)
	return out
}

// FlattenParamsInto serializes all parameter values into dst, which must
// have length NumParams. It is the allocation-free form of FlattenParams.
func (n *Network) FlattenParamsInto(dst []float64) error {
	if len(dst) != n.NumParams() {
		return fmt.Errorf("nn: flatten %d params into buffer of %d", n.NumParams(), len(dst))
	}
	off := 0
	for _, p := range n.Params() {
		d := p.Value.Data()
		copy(dst[off:off+len(d)], d)
		off += len(d)
	}
	return nil
}

// LoadParams overwrites all parameter values from a flat vector previously
// produced by FlattenParams on an identically shaped network.
func (n *Network) LoadParams(flat []float64) error {
	if len(flat) != n.NumParams() {
		return fmt.Errorf("nn: load %d params into network with %d", len(flat), n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		d := p.Value.Data()
		copy(d, flat[off:off+len(d)])
		off += len(d)
	}
	return nil
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, returning the pre-clip norm.
func (n *Network) ClipGradNorm(maxNorm float64) float64 {
	var sq float64
	params := n.Params()
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
