package nn

import (
	"fmt"
	"math"

	"chiron/internal/mat"
)

// SGD is plain stochastic gradient descent with optional momentum, the
// optimizer the paper's edge nodes use for local training.
type SGD struct {
	params   []Param
	lr       float64
	momentum float64
	velocity []*mat.Matrix
}

// NewSGD returns an SGD optimizer over params. momentum of 0 disables the
// velocity term.
func NewSGD(params []Param, lr, momentum float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum}
	if momentum != 0 {
		s.velocity = make([]*mat.Matrix, len(params))
		for i, p := range params {
			s.velocity[i] = mat.New(p.Value.Rows(), p.Value.Cols())
		}
	}
	return s
}

// Reset zeroes the momentum state, as if the optimizer were freshly
// constructed. Federated clients reuse one optimizer across rounds and call
// Reset at each round start, matching the semantics of a per-round fresh
// optimizer without reallocating the velocity buffers.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
}

// Step applies one update using the current gradients. It does not clear
// them; call Network.ZeroGrad between steps.
func (s *SGD) Step() error {
	for i, p := range s.params {
		if s.momentum == 0 {
			if err := p.Value.AddScaled(p.Grad, -s.lr); err != nil {
				return fmt.Errorf("nn: sgd step: %w", err)
			}
			continue
		}
		v := s.velocity[i]
		v.Scale(s.momentum)
		if err := v.AddScaled(p.Grad, 1); err != nil {
			return fmt.Errorf("nn: sgd momentum: %w", err)
		}
		if err := p.Value.AddScaled(v, -s.lr); err != nil {
			return fmt.Errorf("nn: sgd step: %w", err)
		}
	}
	return nil
}

// Adam implements the Adam optimizer used for the PPO actor and critic
// networks.
type Adam struct {
	params []Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   []*mat.Matrix
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(params []Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*mat.Matrix, len(params))
	a.v = make([]*mat.Matrix, len(params))
	for i, p := range params {
		a.m[i] = mat.New(p.Value.Rows(), p.Value.Cols())
		a.v[i] = mat.New(p.Value.Rows(), p.Value.Cols())
	}
	return a
}

// Step applies one update using the current gradients, which it does not
// clear. With AVX2 the mat kernel updates each
// parameter block four elements at a time and adamScalar the rest;
// otherwise adamScalar updates everything, with the same bits.
func (a *Adam) Step() error {
	a.t++
	c := a.coeffs()
	for i, p := range a.params {
		md, vd := a.m[i].Data(), a.v[i].Data()
		gd, pd := p.Grad.Data(), p.Value.Data()
		if len(gd) != len(md) || len(pd) != len(md) {
			return fmt.Errorf("nn: adam step: param %d value/grad size %d/%d state size %d", i, len(pd), len(gd), len(md))
		}
		n := mat.AdamStepVec(pd, gd, md, vd, &c)
		adamScalar(pd[n:], gd[n:], md[n:], vd[n:], &c)
	}
	return nil
}

// coeffs returns the scalars of step a.t.
func (a *Adam) coeffs() mat.AdamCoeffs {
	return mat.AdamCoeffs{
		B1: a.beta1, C1: 1 - a.beta1,
		B2: a.beta2, C2: 1 - a.beta2,
		BC1: 1 - math.Pow(a.beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.beta2, float64(a.t)),
		LR:  a.lr, Eps: a.eps,
	}
}

// adamScalar is the element loop of one Adam step over equal-length
// parameter, gradient and moment slices, and the oracle the vector kernel
// is tested against.
func adamScalar(pd, gd, md, vd []float64, c *mat.AdamCoeffs) {
	// Hoist every coefficient out of the loop: the compiler cannot prove
	// the moment-buffer writes don't alias c, so without locals it reloads
	// them on each iteration.
	b1, c1, b2, c2 := c.B1, c.C1, c.B2, c.C2
	bc1, bc2, lr, eps := c.BC1, c.BC2, c.LR, c.Eps
	for j, g := range gd {
		m := b1*md[j] + c1*g
		v := b2*vd[j] + c2*g*g
		md[j] = m
		vd[j] = v
		mhat := m / bc1
		vhat := v / bc2
		pd[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// SetLR changes the learning rate (PPO learning-rate decay, checkpoint
// restore).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// State returns a deep copy of the optimizer's moment estimates and step
// count, for exact-resume checkpointing.
func (a *Adam) State() (t int, m, v [][]float64) {
	m = make([][]float64, len(a.m))
	v = make([][]float64, len(a.v))
	for i := range a.m {
		m[i] = append([]float64(nil), a.m[i].Data()...)
		v[i] = append([]float64(nil), a.v[i].Data()...)
	}
	return a.t, m, v
}

// SetState overwrites the optimizer's moment estimates and step count from
// a State() capture taken on an identically shaped parameter set.
func (a *Adam) SetState(t int, m, v [][]float64) error {
	if t < 0 {
		return fmt.Errorf("nn: adam state step %d, want >= 0", t)
	}
	if len(m) != len(a.m) || len(v) != len(a.v) {
		return fmt.Errorf("nn: adam state has %d/%d tensors, want %d", len(m), len(v), len(a.m))
	}
	for i := range a.m {
		if len(m[i]) != a.m[i].Size() || len(v[i]) != a.v[i].Size() {
			return fmt.Errorf("nn: adam state tensor %d has %d/%d values, want %d", i, len(m[i]), len(v[i]), a.m[i].Size())
		}
	}
	a.t = t
	for i := range a.m {
		copy(a.m[i].Data(), m[i])
		copy(a.v[i].Data(), v[i])
	}
	return nil
}
