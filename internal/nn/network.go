package nn

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/mat"
)

// Network is an ordered stack of layers trained end to end.
type Network struct {
	layers []Layer
	params []Param // cached: the layer stack is immutable after construction
	// fused is the single-pass execution plan used when the stack is a pure
	// Dense/Activate MLP; nil for any other layer order (an empty stack, or
	// one with an activation that follows no Dense layer), which runs
	// layered.
	// Fused and layered execution are bit-identical (see fused.go), so
	// which one runs is invisible to callers.
	fused *FusedMLP
}

// NewNetwork builds a network from the given layers in order.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	// Re-slice to exact length so callers appending to the returned slice
	// (to add their own parameters) always reallocate instead of scribbling
	// over a shared backing array.
	n.params = n.params[:len(n.params):len(n.params)]
	n.fused, _ = fuseLayers(layers)
	return n
}

// NewMLP builds a multilayer perceptron with the given layer widths
// (input, hidden..., output) and the same hidden activation between each
// pair of Dense layers. The output layer is linear.
func NewMLP(rng *rand.Rand, act Activation, widths ...int) (*Network, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output widths, got %d", len(widths))
	}
	var layers []Layer
	for i := 0; i+1 < len(widths); i++ {
		layers = append(layers, NewDense(rng, widths[i], widths[i+1]))
		if i+2 < len(widths) {
			layers = append(layers, NewActivate(act))
		}
	}
	return NewNetwork(layers...), nil
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

// Forward runs a batch through every layer.
//
// The returned matrix is owned by the network's final layer and is reused
// by the next Forward call, so callers that need two forward results alive
// at once (e.g. V(s) and V(s')) must copy the first before computing the
// second.
func (n *Network) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if n.fused != nil {
		return n.fused.Forward(x)
	}
	var err error
	for i, l := range n.layers {
		if x, err = l.Forward(x); err != nil {
			return nil, fmt.Errorf("nn: layer %d forward: %w", i, err)
		}
	}
	return x, nil
}

// Backward propagates the output gradient back through every layer,
// accumulating parameter gradients, and returns the input gradient.
func (n *Network) Backward(grad *mat.Matrix) (*mat.Matrix, error) {
	if n.fused != nil {
		return n.fused.Backward(grad, true)
	}
	var err error
	for i := len(n.layers) - 1; i >= 0; i-- {
		if grad, err = n.layers[i].Backward(grad); err != nil {
			return nil, fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
	}
	return grad, nil
}

// BackwardParamsOnly accumulates parameter gradients like Backward but
// skips computing the gradient with respect to the network input — dead
// work for every optimizer-driven training loop. On a fused MLP a whole
// GEMM is saved per pass; a layered stack still runs its first layer's
// full backward.
func (n *Network) BackwardParamsOnly(grad *mat.Matrix) error {
	if n.fused != nil {
		_, err := n.fused.Backward(grad, false)
		return err
	}
	var err error
	for i := len(n.layers) - 1; i >= 1; i-- {
		if grad, err = n.layers[i].Backward(grad); err != nil {
			return fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
	}
	if len(n.layers) > 0 {
		if _, err := n.layers[0].Backward(grad); err != nil {
			return fmt.Errorf("nn: layer 0 backward: %w", err)
		}
	}
	return nil
}

// Fused exposes the network's fused execution plan, or nil when the layer
// stack does not fuse. Tests use it to pin fused-vs-layered bit-identity.
func (n *Network) Fused() *FusedMLP { return n.fused }

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

// FlattenGrads serializes all gradients into a single vector.
func (n *Network) FlattenGrads() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Grad.Data()...)
	}
	return out
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
