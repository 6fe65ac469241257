package rl

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/mat"
	"chiron/internal/nn"
)

// The learner settings every agent shares; no agent varies them. The decay
// schedule is the paper's (Sec. VI-A) and the clipping radius PPO's
// standard one; the gradient clip and the reward scale are this
// reproduction's conditioning choices (DESIGN.md).
const (
	// clipEps is the PPO clipping radius ε (standard: 0.2).
	clipEps = 0.2
	// maxGradNorm clips the global gradient norm of each network.
	maxGradNorm = 0.5
	// lrDecayFactor and lrDecayEvery implement the paper's "decays by 95%
	// every 20 episodes" learning-rate schedule.
	lrDecayFactor = 0.95
	lrDecayEvery  = 20
	// rewardScale rescales rewards to O(1) before they enter a pair's
	// buffer, keeping the critic's value targets compatible with gradient
	// clipping. It only affects learner conditioning; reported metrics stay
	// in paper units.
	rewardScale = 0.01
)

// PPOConfig holds the Proximal Policy Optimization hyperparameters that
// differ between agents.
type PPOConfig struct {
	// Gamma is the reward discount factor (paper: 0.95). Advantages are
	// the paper's plain TD(0) residuals r + γV(s′) − V(s) (Algorithm 1).
	Gamma float64
	// ActorLR and CriticLR are the Adam learning rates (paper: 3e-5 both).
	ActorLR, CriticLR float64
	// UpdateEpochs is M, the optimization passes per update (Algorithm 1).
	UpdateEpochs int
	// EntropyCoef weights the exploration entropy bonus.
	EntropyCoef float64
	// InitLogStd initializes the policy's log standard deviation.
	InitLogStd float64
	// Hidden lists the MLP hidden-layer widths for actor and critic.
	Hidden []int
}

// DefaultPPOConfig returns the paper's DRL hyperparameters (Sec. VI-A):
// γ=0.95 and an actor/critic learning rate of 3e-5. The schedule decaying
// it by ×0.95 every 20 episodes and the PPO clipping of 0.2 are the
// package constants above.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Gamma:        0.95,
		ActorLR:      3e-5,
		CriticLR:     3e-5,
		UpdateEpochs: 10,
		EntropyCoef:  1e-3,
		InitLogStd:   -0.5,
		Hidden:       []int{64, 64},
	}
}

// Validate reports whether the configuration is usable.
func (c PPOConfig) Validate() error {
	switch {
	case c.Gamma < 0 || c.Gamma > 1:
		return fmt.Errorf("rl: gamma %v outside [0,1]", c.Gamma)
	case c.ActorLR <= 0 || c.CriticLR <= 0:
		return fmt.Errorf("rl: learning rates %v/%v, want > 0", c.ActorLR, c.CriticLR)
	case c.UpdateEpochs <= 0:
		return fmt.Errorf("rl: update epochs %d, want > 0", c.UpdateEpochs)
	case c.EntropyCoef < 0:
		return fmt.Errorf("rl: entropy coef %v, want >= 0", c.EntropyCoef)
	case len(c.Hidden) == 0:
		return fmt.Errorf("rl: no hidden layers")
	}
	return nil
}

// UpdateStats summarizes one PPO update for logging and tests.
type UpdateStats struct {
	ActorLoss  float64
	CriticLoss float64
	Entropy    float64
	MeanRatio  float64
	ClipFrac   float64
	NumSamples int
	ActorLR    float64
	CriticLR   float64
}

// PPO is an actor-critic PPO learner over a Gaussian policy. It is not
// safe for concurrent use; an update runs its critic and actor epochs as
// two streams (see runStreams), each on state only it touches.
type PPO struct {
	cfg     PPOConfig
	actor   *GaussianPolicy
	critic  *nn.Network
	optA    *nn.Adam
	optC    *nn.Adam
	episode int

	// offChainPlan is a second fused plan over the critic's parameters
	// with its own workspaces. It values the off-chain next states (see
	// linkNextStates), so the critic's own workspaces keep the batch's row
	// count and its last forward stays the one over the states.
	offChainPlan *nn.FusedMLP

	// The prepared update (prepare): its transitions, the critic's output
	// V(s) from the advantage pass, which the critic stream's first epoch
	// reuses, and what each stream reports back: the stats it fills in and
	// its error.
	trans               []Transition
	pred                *mat.Matrix
	stats               UpdateStats
	criticErr, actorErr error

	// Recycled update scratch: batched states and off-chain next states,
	// where each row's V(s′) lives (next) and the values themselves (vals),
	// TD targets plus the critic loss gradient (critic stream only), and
	// the actor mean gradient and σ = exp(log σ) (actor stream only).
	// Reused across Update calls, so a steady-state update allocates only
	// the stream pool's few objects.
	states, offChain *mat.Matrix
	targets, cgrad   *mat.Matrix
	meanGrad         *mat.Matrix
	std              []float64
	next             []int
	vals, adv        []float64
}

// NewPPO builds an agent for the given state/action dimensions.
func NewPPO(rng *rand.Rand, stateDim, actionDim int, cfg PPOConfig) (*PPO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	actor, err := NewGaussianPolicy(rng, stateDim, actionDim, cfg.Hidden, cfg.InitLogStd)
	if err != nil {
		return nil, err
	}
	widths := append(append([]int{stateDim}, cfg.Hidden...), 1)
	critic, err := nn.NewMLP(rng, nn.ActTanh, widths...)
	if err != nil {
		return nil, fmt.Errorf("rl: critic network: %w", err)
	}
	return &PPO{
		cfg:          cfg,
		actor:        actor,
		critic:       critic,
		offChainPlan: critic.NewPlan(),
		optA:         nn.NewAdam(actor.Params(), cfg.ActorLR),
		optC:         nn.NewAdam(critic.Params(), cfg.CriticLR),
	}, nil
}

// Policy exposes the actor for action selection.
func (p *PPO) Policy() *GaussianPolicy { return p.actor }

// Config returns the agent's hyperparameters.
func (p *PPO) Config() PPOConfig { return p.cfg }

// Act samples a pre-squash action and its log-probability.
func (p *PPO) Act(rng *rand.Rand, state []float64) (action []float64, logProb float64, err error) {
	return p.actor.Sample(rng, state)
}

// ActDeterministic returns the policy mean, used for greedy evaluation.
func (p *PPO) ActDeterministic(state []float64) ([]float64, error) {
	return p.actor.Mean(state)
}

// EndEpisode advances the learning-rate decay schedule by one episode and
// returns the actor learning rate now in force.
func (p *PPO) EndEpisode() float64 {
	p.episode++
	if p.episode%lrDecayEvery == 0 {
		p.optA.SetLR(p.optA.LR() * lrDecayFactor)
		p.optC.SetLR(p.optC.LR() * lrDecayFactor)
	}
	return p.optA.LR()
}

// Update runs M epochs of clipped-surrogate PPO over the buffered episode
// (lines 17–27 of Algorithm 1): the critic regresses TD(0) targets and the
// actor ascends the clipped importance-weighted advantage.
func (p *PPO) Update(buf *Buffer) (UpdateStats, error) {
	if err := p.prepare(buf); err != nil {
		return UpdateStats{}, err
	}
	var streams [2]updateStream
	runStreams(p.appendStreams(streams[:0]))
	return p.result()
}

// prepare readies an update over buf: the batched states, the next-state
// links, and the TD(0) advantages from the pre-update critic (Algorithm 1),
// normalized across the batch for stable scaling. After it the critic's M
// regression epochs and the actor's M surrogate epochs read only the
// now-fixed trans, states and adv, and each writes only its own network,
// Adam state and scratch (the critic's includes next, vals and offChain),
// so they run as two streams (appendStreams), bit-identical in any order
// or side by side.
func (p *PPO) prepare(buf *Buffer) error {
	if err := buf.Validate(); err != nil {
		return err
	}
	trans := buf.Transitions()
	n := len(trans)
	p.trans = trans
	p.states = mat.Ensure(p.states, n, len(trans[0].State))
	for i, t := range trans {
		copy(p.states.Row(i), t.State)
	}
	p.linkNextStates(trans)
	adv, err := p.tdAdvantages(trans)
	if err != nil {
		return err
	}
	normalizeAdvantages(adv)
	p.stats = UpdateStats{NumSamples: n}
	p.criticErr, p.actorErr = nil, nil
	return nil
}

// appendStreams appends the prepared update's critic and actor streams to
// dst, each costed at epochs × samples × parameters.
func (p *PPO) appendStreams(dst []updateStream) []updateStream {
	work := p.cfg.UpdateEpochs * len(p.trans)
	return append(dst,
		updateStream{agent: p, critic: true, cost: work * p.critic.NumParams()},
		updateStream{agent: p, cost: work * p.actor.numParams()})
}

// criticEpochs is the critic stream: M regression epochs, the first on the
// advantage pass's forward, which ran on the same parameters.
func (p *PPO) criticEpochs() {
	pred := p.pred
	for epoch := 0; epoch < p.cfg.UpdateEpochs; epoch++ {
		if epoch > 0 {
			if pred, p.criticErr = p.values(); p.criticErr != nil {
				return
			}
		}
		if p.stats.CriticLoss, p.criticErr = p.updateCritic(p.trans, pred); p.criticErr != nil {
			return
		}
	}
}

// actorEpochs is the actor stream: M clipped-surrogate epochs.
func (p *PPO) actorEpochs() {
	for epoch := 0; epoch < p.cfg.UpdateEpochs; epoch++ {
		p.stats.ActorLoss, p.stats.MeanRatio, p.stats.ClipFrac, p.actorErr = p.updateActor(p.trans, p.states, p.adv)
		if p.actorErr != nil {
			return
		}
	}
}

// result reports a finished update: the critic stream's error first, then
// the actor's, or the stats.
func (p *PPO) result() (UpdateStats, error) {
	if p.criticErr != nil {
		return UpdateStats{}, fmt.Errorf("rl: critic update: %w", p.criticErr)
	}
	if p.actorErr != nil {
		return UpdateStats{}, fmt.Errorf("rl: actor update: %w", p.actorErr)
	}
	stats := p.stats
	stats.Entropy = p.actor.Entropy()
	stats.ActorLR = p.optA.LR()
	stats.CriticLR = p.optC.LR()
	return stats, nil
}

// linkNextStates decides where each row's V(s′) comes from, once per
// update. A buffer holds trajectories, so a non-terminal row's next state
// is almost always the next row's state, which the critic's forward pass
// over the batch already values. The critic values each row on its own
// (every GEMM element, bias add and activation reads only its row), so that
// value is bit-identical to a separate forward pass over the next states.
// Next states that differ from the next row's state in any bit are
// gathered into offChain for a forward pass of their own; terminal rows
// bootstrap nothing. next[i] indexes V(s′_i) in vals (row i+1 of V(s), or
// n plus the row of offChain), or is −1 for a terminal row.
func (p *PPO) linkNextStates(trans []Transition) {
	n := len(trans)
	if len(p.next) != n {
		p.next = make([]int, n)
	}
	k := 0
	for i, t := range trans {
		switch {
		case t.Done:
			p.next[i] = -1
		case i+1 < n && sameBits(t.NextState, trans[i+1].State):
			p.next[i] = i + 1
		default:
			p.next[i] = n + k
			k++
		}
	}
	p.vals = mat.EnsureVec(p.vals, n+k)
	if k == 0 {
		return
	}
	p.offChain = mat.Ensure(p.offChain, k, len(trans[0].State))
	for i, t := range trans {
		if p.next[i] >= n {
			copy(p.offChain.Row(p.next[i]-n), t.NextState)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// values runs the current critic over the batch, V(s) into vals[:n] and
// the off-chain V(s′) into vals[n:], and returns the critic's output V(s).
// The off-chain rows go through offChainPlan, so the critic's own plan
// holds the states' activations for a following backward pass.
func (p *PPO) values() (*mat.Matrix, error) {
	n := p.states.Rows()
	if len(p.vals) > n {
		vo, err := p.offChainPlan.Forward(p.offChain)
		if err != nil {
			return nil, err
		}
		copy(p.vals[n:], vo.Data())
	}
	v, err := p.critic.Forward(p.states)
	if err != nil {
		return nil, err
	}
	copy(p.vals[:n], v.Data())
	return v, nil
}

// nextValue is V(s′_i) from the last values call, or 0 for a terminal row.
func (p *PPO) nextValue(i int) float64 {
	if j := p.next[i]; j >= 0 {
		return p.vals[j]
	}
	return 0
}

// tdAdvantages computes r + γV(s′)(1−done) − V(s) with the current critic
// and keeps the critic's output V(s) in pred. The returned slice is owned
// by the agent and reused by the next call.
func (p *PPO) tdAdvantages(trans []Transition) ([]float64, error) {
	var err error
	if p.pred, err = p.values(); err != nil {
		return nil, err
	}
	p.adv = mat.EnsureVec(p.adv, len(trans))
	adv := p.adv
	for i, t := range trans {
		adv[i] = t.Reward + p.cfg.Gamma*p.nextValue(i) - p.vals[i]
	}
	return adv, nil
}

func normalizeAdvantages(adv []float64) {
	mean := mat.MeanVec(adv)
	std := mat.StdVec(adv)
	if std < 1e-8 {
		std = 1e-8
	}
	for i := range adv {
		adv[i] = (adv[i] - mean) / std
	}
}

// updateCritic performs one semi-gradient TD(0) regression pass on pred,
// the critic's output from the last values call: targets r + γV(s′) come
// from the current critic and are treated as constants, per line 19 of
// Algorithm 1. One forward pass over the states yields both the prediction
// and, through linkNextStates, the targets.
func (p *PPO) updateCritic(trans []Transition, pred *mat.Matrix) (float64, error) {
	n := len(trans)
	p.targets = mat.Ensure(p.targets, n, 1)
	targets := p.targets
	for i, t := range trans {
		targets.Set(i, 0, t.Reward+p.cfg.Gamma*p.nextValue(i))
	}
	p.cgrad = mat.Ensure(p.cgrad, n, 1)
	loss, err := nn.MSETo(p.cgrad, pred, targets)
	if err != nil {
		return 0, err
	}
	if err := p.critic.Backward(p.cgrad); err != nil {
		return 0, err
	}
	if err := p.optC.Step(p.critic.GradClipScale(maxGradNorm)); err != nil {
		return 0, err
	}
	return loss, nil
}

// updateActor performs one clipped-surrogate pass:
// L = −E[min(ρ·Â, clip(ρ,1±ε)·Â)] − c_H·H(π).
func (p *PPO) updateActor(trans []Transition, states *mat.Matrix, adv []float64) (loss, meanRatio, clipFrac float64, err error) {
	n := len(trans)
	actDim := p.actor.ActionDim()
	means, err := p.actor.MeanBatch(states)
	if err != nil {
		return 0, 0, 0, err
	}
	ls := p.actor.logStd.Value.Data()
	p.meanGrad = mat.Ensure(p.meanGrad, n, actDim)
	meanGrad := p.meanGrad
	meanGrad.Zero() // only the unclipped branch writes entries
	// Backward overwrites the mean network's gradients; only the log-std
	// gradient, which the loop below accumulates, needs zeroing.
	logStdGrad := p.actor.logStd.Grad.Data()
	clear(logStdGrad)
	// log σ is fixed within the pass, so σ is computed once, not per row.
	p.std = mat.EnsureVec(p.std, actDim)
	std := p.std
	for j, l := range ls[:actDim] {
		std[j] = math.Exp(l)
	}

	invN := 1 / float64(n)
	var clipped int
	for i, t := range trans {
		// New log-probability under current parameters.
		var lp float64
		for j := 0; j < actDim; j++ {
			z := (t.Action[j] - means.At(i, j)) / std[j]
			lp += -0.5*z*z - ls[j] - 0.5*log2Pi
		}
		ratio := math.Exp(lp - t.LogProb)
		meanRatio += ratio * invN
		surr1 := ratio * adv[i]
		surr2 := mat.Clamp(ratio, 1-clipEps, 1+clipEps) * adv[i]
		if surr1 <= surr2 {
			// Gradient flows through the unclipped branch:
			// dL/dlogπ = −Â·ρ/n, then chain into μ and logσ.
			gradLP := -adv[i] * ratio * invN
			for j, sd := range std {
				diff := t.Action[j] - means.At(i, j)
				// ∂logπ/∂μ_j = (a_j − μ_j)/σ_j²
				meanGrad.Set(i, j, gradLP*diff/(sd*sd))
				// ∂logπ/∂logσ_j = (a_j − μ_j)²/σ_j² − 1
				logStdGrad[j] += gradLP * (diff*diff/(sd*sd) - 1)
			}
			loss -= surr1 * invN
		} else {
			clipped++
			loss -= surr2 * invN
		}
	}
	// Entropy bonus: H = Σ(logσ_j + const); ∂H/∂logσ_j = 1.
	if p.cfg.EntropyCoef > 0 {
		for j := 0; j < actDim; j++ {
			logStdGrad[j] -= p.cfg.EntropyCoef
		}
		loss -= p.cfg.EntropyCoef * p.actor.Entropy()
	}
	if err := p.actor.BackwardMean(meanGrad); err != nil {
		return 0, 0, 0, err
	}
	if err := p.optA.Step(policyGradClipScale(p.actor, maxGradNorm)); err != nil {
		return 0, 0, 0, err
	}
	p.actor.ClampLogStd()
	return loss, meanRatio, float64(clipped) / float64(n), nil
}

// policyGradClipScale is the factor that clips the global gradient norm
// across the mean network and the log-std vector together to maxNorm:
// maxNorm/norm, or 1 when the norm is within it. Unlike
// Network.GradClipScale it scales by NaN on a NaN norm.
func policyGradClipScale(pol *GaussianPolicy, maxNorm float64) float64 {
	var sq float64
	for _, p := range pol.Params() {
		for _, g := range p.Grad.Data() {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return 1
	}
	return maxNorm / norm
}
