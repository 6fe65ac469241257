package nn

import (
	"fmt"

	"chiron/internal/mat"
)

// FusedMLP is a fused forward+backward execution plan for a stack of Dense
// and Activate layers (the small policy MLPs and the federated classifier).
// One forward pass computes each layer's GEMM and then folds the bias add
// and activation into a single epilogue sweep; one backward pass folds the
// activation derivative into the incoming gradient while it is produced,
// then runs the three layer GEMMs (dW, db, dx) directly — no per-layer
// interface dispatch, no gradient copies, and every intermediate lives in a
// preallocated workspace recycled across calls.
//
// The fused plan is bit-identical to running the layers one by one: the
// epilogue computes act(gemm[i][j] + b[j]) exactly as the AddRowVector /
// ApplyTo pair did per element, and the backward pass invokes the same mat
// kernels on the same values in the same per-element order. It shares the
// layers' Param tensors, so optimizers, checkpointing, and serialization
// observe fused and layered execution identically.
type FusedMLP struct {
	units []fusedUnit
	lastX *mat.Matrix
	// Recycled workspaces, one per unit: post-activation outputs, local
	// gradients (delta), dW scratch, and the per-unit input gradients.
	ys    []*mat.Matrix
	delta []*mat.Matrix
	dw    []*mat.Matrix
	dxs   []*mat.Matrix
	sums  [][]float64
}

// fusedUnit is one Dense layer plus the activation fused onto its output
// (ActIdentity when the Dense output feeds the next layer or loss directly).
type fusedUnit struct {
	dense *Dense
	act   Activation
}

// Fuse builds a fused execution plan for the network's layer stack. It
// reports false when the stack is empty or is anything other than Dense
// layers each optionally followed by an activation — such networks keep
// the general layered path.
func Fuse(n *Network) (*FusedMLP, bool) {
	return fuseLayers(n.layers)
}

func fuseLayers(layers []Layer) (*FusedMLP, bool) {
	var units []fusedUnit
	for i := 0; i < len(layers); i++ {
		d, ok := layers[i].(*Dense)
		if !ok {
			return nil, false
		}
		u := fusedUnit{dense: d, act: ActIdentity}
		if i+1 < len(layers) {
			if a, ok := layers[i+1].(*Activate); ok {
				u.act = a.kind
				i++
			}
		}
		units = append(units, u)
	}
	if len(units) == 0 {
		return nil, false
	}
	return &FusedMLP{
		units: units,
		ys:    make([]*mat.Matrix, len(units)),
		delta: make([]*mat.Matrix, len(units)),
		dw:    make([]*mat.Matrix, len(units)),
		dxs:   make([]*mat.Matrix, len(units)),
		sums:  make([][]float64, len(units)),
	}, true
}

// Forward runs the batch through every unit: GEMM, then one epilogue sweep
// adding the bias and applying the activation in place. The returned matrix
// is a workspace reused by the next call.
func (f *FusedMLP) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	f.lastX = x
	for l := range f.units {
		u := &f.units[l]
		d := u.dense
		if x.Cols() != d.in {
			return nil, fmt.Errorf("nn: fused forward unit %d: input width %d, want %d", l, x.Cols(), d.in)
		}
		y := mat.Ensure(f.ys[l], x.Rows(), d.out)
		f.ys[l] = y
		if err := mat.MulTo(y, x, d.w.Value); err != nil {
			return nil, fmt.Errorf("nn: fused forward unit %d: %w", l, err)
		}
		if err := epilogue(y, d.b.Value.Row(0), u.act); err != nil {
			return nil, fmt.Errorf("nn: fused forward unit %d bias: %w", l, err)
		}
		x = y
	}
	return x, nil
}

// epilogue adds the bias row vector and applies the activation in place.
// Per element this computes act(y[i][j] + bias[j]), the exact value (and
// floating-point operation order) of the separate bias and activation
// passes it fuses. Tanh and the identity run as two whole-matrix mat
// kernels, the bias add and then tanh; ReLU and sigmoid fold both into one
// sweep.
func epilogue(y *mat.Matrix, bias []float64, act Activation) error {
	if act != ActReLU && act != ActSigmoid {
		if err := mat.AddRowVector(y, bias); err != nil {
			return err
		}
		if act == ActTanh {
			mat.TanhVec(y.Data())
		}
		return nil
	}
	rows, cols := y.Rows(), y.Cols()
	data := y.Data()
	for r := 0; r < rows; r++ {
		yrow := data[r*cols : (r+1)*cols]
		switch act {
		case ActReLU:
			for j, bv := range bias {
				if v := yrow[j] + bv; v < 0 {
					yrow[j] = 0
				} else {
					yrow[j] = v
				}
			}
		case ActSigmoid:
			for j, bv := range bias {
				yrow[j] = mat.Sigmoid(yrow[j] + bv)
			}
		}
	}
	return nil
}

// Backward propagates grad back through every unit, accumulating parameter
// gradients into the shared Param tensors. The activation derivative is
// folded into the production of each unit's local gradient, so no layer
// boundary copies a matrix. When needInputGrad is false the input-gradient
// GEMM of the first unit — dead work for every training loop in this
// repository — is skipped and Backward returns nil.
func (f *FusedMLP) Backward(grad *mat.Matrix, needInputGrad bool) (*mat.Matrix, error) {
	if f.lastX == nil {
		return nil, fmt.Errorf("nn: fused backward before forward")
	}
	g := grad
	for l := len(f.units) - 1; l >= 0; l-- {
		u := &f.units[l]
		d := u.dense
		if g.Rows() != f.ys[l].Rows() || g.Cols() != d.out {
			return nil, fmt.Errorf("nn: fused backward unit %d: grad %dx%d, want %dx%d", l, g.Rows(), g.Cols(), f.ys[l].Rows(), d.out)
		}
		delta := g
		if u.act != ActIdentity {
			dm := mat.Ensure(f.delta[l], g.Rows(), g.Cols())
			f.delta[l] = dm
			dd, gd, yd := dm.Data(), g.Data(), f.ys[l].Data()
			switch u.act {
			case ActReLU:
				for i, y := range yd {
					if y <= 0 {
						dd[i] = 0
					} else {
						dd[i] = gd[i]
					}
				}
			case ActTanh:
				mat.TanhGradTo(dd, gd, yd)
			case ActSigmoid:
				for i, y := range yd {
					dd[i] = gd[i] * (y * (1 - y))
				}
			default:
				return nil, fmt.Errorf("nn: fused backward: unknown activation %v", u.act)
			}
			delta = dm
		}
		x := f.lastX
		if l > 0 {
			x = f.ys[l-1]
		}
		dw := mat.Ensure(f.dw[l], d.in, d.out)
		f.dw[l] = dw
		if err := mat.MulTransATo(dw, x, delta); err != nil {
			return nil, fmt.Errorf("nn: fused backward unit %d dW: %w", l, err)
		}
		if err := d.w.Grad.AddScaled(dw, 1); err != nil {
			return nil, fmt.Errorf("nn: fused backward unit %d accumulate dW: %w", l, err)
		}
		f.sums[l] = mat.EnsureVec(f.sums[l], d.out)
		if err := delta.SumRowsTo(f.sums[l]); err != nil {
			return nil, fmt.Errorf("nn: fused backward unit %d db: %w", l, err)
		}
		mat.AddVec(d.b.Grad.Row(0), f.sums[l])
		if l == 0 && !needInputGrad {
			return nil, nil
		}
		dx := mat.Ensure(f.dxs[l], delta.Rows(), d.in)
		f.dxs[l] = dx
		if err := mat.MulTransBTo(dx, delta, d.w.Value); err != nil {
			return nil, fmt.Errorf("nn: fused backward unit %d dx: %w", l, err)
		}
		g = dx
	}
	return g, nil
}
