package nn

import (
	"fmt"

	"chiron/internal/mat"
)

// FusedMLP is the fused forward+backward execution plan of a Network: its
// Dense layers, each with the activation that follows it folded in. One
// forward pass computes each layer's GEMM and then folds the bias add and
// activation into a single epilogue sweep; one backward pass folds the
// activation derivative into the incoming gradient while it is produced,
// then runs the layer GEMMs (dW, db, and dx below the first unit) directly
// — no per-layer interface dispatch, no gradient copies, and every
// intermediate lives in a preallocated workspace recycled across calls.
//
// The fused plan is bit-identical to running the layers one by one on
// zeroed gradients: the epilogue computes act(gemm[i][j] + b[j]) exactly as
// the AddRowVector / ApplyTo pair does per element, and the backward pass
// invokes the same mat kernels on the same values in the same per-element
// order. It shares the layers' Param tensors, so optimizers,
// checkpointing, and serialization see the layers' parameters.
type FusedMLP struct {
	units []fusedUnit
	lastX *mat.Matrix
	// Recycled workspaces, one per unit: post-activation outputs, local
	// gradients (delta), and the per-unit input gradients.
	ys    []*mat.Matrix
	delta []*mat.Matrix
	dxs   []*mat.Matrix
}

// fusedUnit is one Dense layer plus the activation fused onto its output
// (ActIdentity when the Dense output feeds the next layer or loss directly).
type fusedUnit struct {
	dense *Dense
	act   Activation
}

// newFusedMLP builds a plan with fresh workspaces over units, which it
// shares read-only.
func newFusedMLP(units []fusedUnit) *FusedMLP {
	return &FusedMLP{
		units: units,
		ys:    make([]*mat.Matrix, len(units)),
		delta: make([]*mat.Matrix, len(units)),
		dxs:   make([]*mat.Matrix, len(units)),
	}
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
// kernels, the bias add and then tanh; ReLU folds both into one sweep.
func epilogue(y *mat.Matrix, bias []float64, act Activation) error {
	if act != ActReLU {
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
		for j, bv := range bias {
			if v := yrow[j] + bv; v < 0 {
				yrow[j] = 0
			} else {
				yrow[j] = v
			}
		}
	}
	return nil
}

// Backward propagates grad back through every unit, writing each unit's dW
// and db straight into the shared Param gradients, whatever they held
// before. That has the bits of zeroing them and then accumulating: the
// GEMM and row-sum accumulators start at +0, and a round-to-nearest sum
// that starts at +0 is never −0, so 0 + dW has the bits of dW. The
// activation derivative is folded into the production of each unit's
// local gradient, so no layer boundary copies a matrix. No caller needs
// the gradient with respect to the plan's input, so the first unit stops
// after its dW and db.
func (f *FusedMLP) Backward(grad *mat.Matrix) error {
	if f.lastX == nil {
		return fmt.Errorf("nn: fused backward before forward")
	}
	g := grad
	for l := len(f.units) - 1; ; l-- {
		u := &f.units[l]
		d := u.dense
		if g.Rows() != f.ys[l].Rows() || g.Cols() != d.out {
			return fmt.Errorf("nn: fused backward unit %d: grad %dx%d, want %dx%d", l, g.Rows(), g.Cols(), f.ys[l].Rows(), d.out)
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
			default:
				return fmt.Errorf("nn: fused backward: unknown activation %v", u.act)
			}
			delta = dm
		}
		x := f.lastX
		if l > 0 {
			x = f.ys[l-1]
		}
		if err := mat.MulTransATo(d.w.Grad, x, delta); err != nil {
			return fmt.Errorf("nn: fused backward unit %d dW: %w", l, err)
		}
		if err := delta.SumRowsTo(d.b.Grad.Row(0)); err != nil {
			return fmt.Errorf("nn: fused backward unit %d db: %w", l, err)
		}
		if l == 0 {
			return nil
		}
		dx := mat.Ensure(f.dxs[l], delta.Rows(), d.in)
		f.dxs[l] = dx
		if err := mat.MulTransBTo(dx, delta, d.w.Value); err != nil {
			return fmt.Errorf("nn: fused backward unit %d dx: %w", l, err)
		}
		g = dx
	}
}
