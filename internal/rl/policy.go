package rl

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/mat"
	"chiron/internal/nn"
)

const (
	logStdMin = -5.0
	logStdMax = 2.0
	// log(2π), the Gaussian log-density constant.
	log2Pi = 1.8378770664093453
)

// GaussianPolicy is a diagonal-Gaussian stochastic policy π_θ(a|s) =
// N(μ_θ(s), diag(exp(logσ)²)) with a state-independent learnable log
// standard deviation. Actions are sampled in unbounded pre-squash space;
// callers map them into the environment's action set (sigmoid to a price
// range, softmax to the allocation simplex) — a deterministic transform
// that leaves the policy-gradient estimator unchanged.
type GaussianPolicy struct {
	net       *nn.Network
	logStd    nn.Param
	actionDim int
	params    []nn.Param  // cached: mean network params + logStd
	xBuf      *mat.Matrix // recycled single-state input batch
}

// NewGaussianPolicy builds a policy whose mean network is an MLP with the
// given hidden widths and tanh activations (the conventional PPO trunk).
func NewGaussianPolicy(rng *rand.Rand, stateDim, actionDim int, hidden []int, initLogStd float64) (*GaussianPolicy, error) {
	if stateDim <= 0 || actionDim <= 0 {
		return nil, fmt.Errorf("rl: policy dims state=%d action=%d", stateDim, actionDim)
	}
	widths := append(append([]int{stateDim}, hidden...), actionDim)
	net, err := nn.NewMLP(rng, nn.ActTanh, widths...)
	if err != nil {
		return nil, fmt.Errorf("rl: policy network: %w", err)
	}
	p := &GaussianPolicy{
		net:       net,
		actionDim: actionDim,
		logStd:    nn.Param{Value: mat.New(1, actionDim), Grad: mat.New(1, actionDim)},
	}
	p.logStd.Value.Fill(mat.Clamp(initLogStd, logStdMin, logStdMax))
	p.params = append(p.params, net.Params()...)
	p.params = append(p.params, p.logStd)
	return p, nil
}

// ActionDim reports the action dimensionality.
func (p *GaussianPolicy) ActionDim() int { return p.actionDim }

// Params returns the mean network's parameters plus the log-std vector, in
// a stable order for the optimizer. The slice is cached and shared across
// calls; callers must not modify it.
func (p *GaussianPolicy) Params() []nn.Param {
	return p.params
}

// numParams reports the number of trainable scalars: the mean network's
// and the log-std vector's.
func (p *GaussianPolicy) numParams() int { return p.net.NumParams() + p.actionDim }

// ClampLogStd keeps the log standard deviation inside a numerically safe
// band; call after each optimizer step.
func (p *GaussianPolicy) ClampLogStd() {
	d := p.logStd.Value.Data()
	for i, v := range d {
		d[i] = mat.Clamp(v, logStdMin, logStdMax)
	}
}

// Mean runs the mean network on a single state. The result is a fresh
// slice the caller owns.
func (p *GaussianPolicy) Mean(state []float64) ([]float64, error) {
	p.xBuf = mat.Ensure(p.xBuf, 1, len(state))
	copy(p.xBuf.Row(0), state)
	out, err := p.net.Forward(p.xBuf)
	if err != nil {
		return nil, fmt.Errorf("rl: policy mean: %w", err)
	}
	return mat.CloneVec(out.Row(0)), nil
}

// MeanBatch runs the mean network on a batch of states (one per row). The
// returned matrix is the network's recycled output buffer; it is valid
// until the next forward pass through the policy.
func (p *GaussianPolicy) MeanBatch(states *mat.Matrix) (*mat.Matrix, error) {
	return p.net.Forward(states)
}

// MeanNet exposes the mean network, read-only: callers inspect its layer
// widths (for example to count an update's floating-point operations) and
// must not mutate it.
func (p *GaussianPolicy) MeanNet() *nn.Network { return p.net }

// BackwardMean propagates a gradient with respect to the batch means back
// through the mean network, overwriting its parameter gradients.
func (p *GaussianPolicy) BackwardMean(grad *mat.Matrix) error {
	return p.net.Backward(grad)
}

// Std returns the current standard deviation vector.
func (p *GaussianPolicy) Std() []float64 {
	out := make([]float64, p.actionDim)
	for i, v := range p.logStd.Value.Data() {
		out[i] = math.Exp(v)
	}
	return out
}

// Sample draws an action from π(·|state) and returns it with its
// log-probability under the current parameters.
func (p *GaussianPolicy) Sample(rng *rand.Rand, state []float64) (action []float64, logProb float64, err error) {
	mean, err := p.Mean(state)
	if err != nil {
		return nil, 0, err
	}
	std := p.Std()
	action = make([]float64, p.actionDim)
	for i := range action {
		action[i] = mean[i] + std[i]*rng.NormFloat64()
	}
	logProb = p.logProb(mean, action)
	return action, logProb, nil
}

// logProb evaluates the diagonal-Gaussian log-density.
func (p *GaussianPolicy) logProb(mean, action []float64) float64 {
	ls := p.logStd.Value.Data()
	var lp float64
	for i := range action {
		std := math.Exp(ls[i])
		z := (action[i] - mean[i]) / std
		lp += -0.5*z*z - ls[i] - 0.5*log2Pi
	}
	return lp
}

// Entropy returns the policy entropy Σ(logσ + ½log(2πe)), which depends
// only on the log-std parameters.
func (p *GaussianPolicy) Entropy() float64 {
	var h float64
	for _, v := range p.logStd.Value.Data() {
		h += v + 0.5*(log2Pi+1)
	}
	return h
}
