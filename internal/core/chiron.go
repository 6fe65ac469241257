// Package core implements the paper's primary contribution: Chiron, the
// hierarchical deep-reinforcement incentive mechanism (Sec. V).
//
// Two PPO agents cooperate inside the parameter server. The exterior agent
// observes the windowed round history plus budget state and emits the
// round's total price p_total,k — the long-term, budget-pacing decision.
// Its action becomes the inner agent's state; the inner agent emits the
// allocation proportions pr_{i,k} across nodes — the short-term
// time-consistency decision. Per-node prices are p_{i,k} = a^E_k·a^I_{i,k}
// (Eqn. 13). Both agents train with clipped-surrogate PPO at episode end,
// exactly the workflow of Algorithm 1.
//
// Chiron builds its own observations and price heads on top of two
// internal/rl policy+learner pairs, run by the mechanism.Driver episode
// loop.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/edgeenv"
	"chiron/internal/mat"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// totalPriceFloor is the lower bound of the exterior action as a fraction
// of the environment's MaxTotalPrice, keeping the squashed action away from
// the degenerate zero-price corner.
const totalPriceFloor = 0.01

// Config parameterizes the hierarchical agent.
type Config struct {
	// Exterior and Inner hold the PPO hyperparameters of the two agents.
	Exterior rl.PPOConfig
	Inner    rl.PPOConfig
	// MinUpdateSamples defers the end-of-episode PPO update until the
	// exterior buffer holds at least this many transitions, batching
	// consecutive short episodes together. Large fleets burn small budgets
	// in a handful of rounds; updating on 3–5 samples makes the
	// batch-normalized advantages meaningless and the policy random-walks.
	MinUpdateSamples int
	// Seed drives all of the agent's stochasticity.
	Seed int64
}

// DefaultConfig returns the paper's hyperparameters for both layers plus
// the reproduction's documented conditioning adjustments (DESIGN.md): a
// faster exterior critic so the value of low-budget states is learned
// before the myopic price-up gradient dominates, and a lower-noise,
// harder-trained inner agent for the allocation simplex. The exterior price
// floor (totalPriceFloor) and both agents' ×0.01 reward scale (in rl) are
// constants, not settings.
func DefaultConfig() Config {
	exterior := rl.DefaultPPOConfig()
	exterior.CriticLR = 3e-4
	inner := rl.DefaultPPOConfig()
	inner.ActorLR = 1e-4
	inner.CriticLR = 1e-4
	inner.InitLogStd = -1.0
	inner.EntropyCoef = 1e-4
	inner.UpdateEpochs = 20
	return Config{
		Exterior:         exterior,
		Inner:            inner,
		MinUpdateSamples: 64,
		Seed:             1,
	}
}

// Validate reports whether the configuration is usable. The two PPO
// configurations are checked by rl.NewPPO as New builds each agent.
func (c Config) Validate() error {
	if c.MinUpdateSamples < 0 {
		return fmt.Errorf("core: min update samples %d, want >= 0", c.MinUpdateSamples)
	}
	return nil
}

// Chiron is the hierarchical DRL incentive mechanism: an exterior
// policy+learner pair (total price, log-squashed over the full exterior
// observation) and an inner pair (allocation proportions on the simplex,
// conditioned on the exterior action), run by its embedded episode driver.
type Chiron struct {
	*mechanism.Driver
	cfg      Config
	stateDim int // exterior observation length: history window + 2
	pairE    *rl.Pair
	pairI    *rl.Pair
	sched    *rl.Scheduler
	src      *rl.CountingSource
	rng      *rand.Rand
	maxTotal float64
	priceLo  float64 // exterior action range, see New
	priceHi  float64

	// Per-round actor scratch, valid between Decide and Observe/Discard.
	lastStateE []float64
	lastD      decision
	// nextE is the NextState a training Observe rendered, reused by the
	// training Decide of round nextRound (the key keeps an episode a round
	// hook abandoned from feeding the next one): one render per round.
	nextE     []float64
	nextRound int
	// The inner transition for round k needs round k+1's inner state, so
	// its commit is delayed by one round (lines 13–15 of Algorithm 1).
	pending *pendingInner
}

type pendingInner struct {
	d decision
	r float64
}

var (
	_ mechanism.Mechanism    = (*Chiron)(nil)
	_ mechanism.Actor        = (*Chiron)(nil)
	_ mechanism.Checkpointer = (*Chiron)(nil)
)

// New builds a Chiron agent bound to env.
func New(env *edgeenv.Env, cfg Config) (*Chiron, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rl.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	stateDim := env.HistoryDim() + 2
	exterior, err := rl.NewPPO(rng, stateDim, 1, cfg.Exterior)
	if err != nil {
		return nil, fmt.Errorf("core: exterior agent: %w", err)
	}
	// The inner state is the one-entry normalized exterior action.
	inner, err := rl.NewPPO(rng, 1, env.NumNodes(), cfg.Inner)
	if err != nil {
		return nil, fmt.Errorf("core: inner agent: %w", err)
	}
	c := &Chiron{
		cfg:      cfg,
		stateDim: stateDim,
		pairE:    rl.NewPair("exterior", exterior),
		pairI:    rl.NewPair("inner", inner),
		src:      src,
		rng:      rng,
		maxTotal: env.MaxTotalPrice(),
	}
	// Update order is inner before exterior (Algorithm 1 lines 17–27), so
	// the gate watches the exterior buffer, and decay ticks every episode.
	c.sched = &rl.Scheduler{
		Pairs:      []*rl.Pair{c.pairI, c.pairE},
		MinSamples: cfg.MinUpdateSamples,
		DecayFirst: true,
	}
	c.Driver = mechanism.NewDriver("Chiron", env, c)
	// The exterior action is a per-round total price (per unit CPU
	// frequency). Its meaningful scale is set by the budget: the policy
	// should be able to pace between "stretch η over up to 2·MaxRounds
	// rounds" and "burn η in 3 rounds". Those are PAYMENT targets, so the
	// corresponding total-price bounds come from inverting the fleet's
	// price→payment map (uniform split, best responses), capped at the
	// fleet's saturation price beyond which extra price is pure waste.
	// The policy then works in log space over the range (logSquash) so
	// exploration starts near the geometric middle — a moderate pace at
	// every fleet size and budget.
	budget := env.Ledger().Budget()
	maxRounds := float64(env.Config().MaxRounds)
	c.priceLo = c.totalPriceForPayment(budget / (2 * maxRounds))
	c.priceHi = c.totalPriceForPayment(budget / 3)
	if c.priceHi > c.maxTotal {
		c.priceHi = c.maxTotal
	}
	if floor := totalPriceFloor * c.maxTotal; c.priceLo < floor {
		c.priceLo = floor
	}
	if c.priceLo >= c.priceHi {
		c.priceLo = c.priceHi / 10
	}
	return c, nil
}

// logSquash maps an unbounded pre-squash value into [lo, hi] on a
// logarithmic scale: u=0 lands on the geometric mean √(lo·hi). Prices span
// orders of magnitude, so the log parametrization gives the policy equal
// resolution across the whole range and starts exploration near the middle
// of the multiplicative range instead of half the maximum. lo must be
// positive.
func logSquash(u, lo, hi float64) float64 {
	logLo, logHi := math.Log(lo), math.Log(hi)
	return math.Exp(logLo + (logHi-logLo)/(1+math.Exp(-u)))
}

// SplitPrices is the Eqn. 13 inner head: it projects the inner agent's
// pre-squash vector u onto the simplex (softmax) and scales the
// proportions by the round's total price, p_{i,k} = a^E_k · a^I_{i,k}.
func SplitPrices(total float64, u []float64) []float64 {
	prices, _ := mat.Softmax(nil, u) // a nil dst is sized to u: no shape error
	for i, pr := range prices {
		prices[i] = total * pr
	}
	return prices
}

// exteriorState renders s^E_k into a fresh slice: the history window, then
// the remaining budget fraction and the normalized round index — the two
// long-term entries that distinguish Chiron from the myopic baselines.
func (c *Chiron) exteriorState() []float64 {
	env := c.Env()
	s := make([]float64, c.stateDim)
	h := c.stateDim - 2
	env.History(s[:h])
	ledger := env.Ledger()
	s[h] = ledger.Remaining() / ledger.Budget()
	s[h+1] = float64(env.Round()) / float64(env.Config().MaxRounds)
	return s
}

// paymentForTotal estimates the round payment a uniformly split total
// price induces through the nodes' best responses.
func (c *Chiron) paymentForTotal(total float64) float64 {
	per := total / float64(c.Env().NumNodes())
	var sum float64
	for _, n := range c.Env().Nodes() {
		sum += n.BestResponse(per).Payment
	}
	return sum
}

// totalPriceForPayment inverts paymentForTotal by bisection: the smallest
// total price whose induced payment reaches the target. Payment is
// nondecreasing in price. Targets above the saturation payment return the
// fleet's max total price.
func (c *Chiron) totalPriceForPayment(target float64) float64 {
	if target <= 0 {
		return totalPriceFloor * c.maxTotal
	}
	if c.paymentForTotal(c.maxTotal) <= target {
		return c.maxTotal
	}
	lo, hi := 0.0, c.maxTotal
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if c.paymentForTotal(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Exterior exposes the exterior PPO agent (for checkpointing and tests).
func (c *Chiron) Exterior() *rl.PPO { return c.pairE.Agent }

// Inner exposes the inner PPO agent.
func (c *Chiron) Inner() *rl.PPO { return c.pairI.Agent }

// decision is the per-round action bundle before environment execution.
type decision struct {
	actE   []float64 // exterior pre-squash action (dim 1)
	lpE    float64
	actI   []float64 // inner pre-squash action (dim N)
	lpI    float64
	total  float64   // squashed total price p_total,k
	stateI []float64 // inner state {p_total,k normalized}
	prices []float64 // per-node prices (Eqn. 13)
}

// decide runs both policy networks for one round.
func (c *Chiron) decide(stateE []float64, train bool) (decision, error) {
	var d decision
	var err error
	if train {
		d.actE, d.lpE, err = c.pairE.Agent.Act(c.rng, stateE)
	} else {
		d.actE, err = c.pairE.Agent.ActDeterministic(stateE)
	}
	if err != nil {
		return decision{}, fmt.Errorf("core: exterior act: %w", err)
	}
	d.total = logSquash(d.actE[0], c.priceLo, c.priceHi)
	// The exterior action, normalized by the fleet's saturation price, is
	// the inner state (the hierarchy of Fig. 2).
	d.stateI = []float64{d.total / c.maxTotal}
	if train {
		d.actI, d.lpI, err = c.pairI.Agent.Act(c.rng, d.stateI)
	} else {
		d.actI, err = c.pairI.Agent.ActDeterministic(d.stateI)
	}
	if err != nil {
		return decision{}, fmt.Errorf("core: inner act: %w", err)
	}
	d.prices = SplitPrices(d.total, d.actI)
	return d, nil
}

// Decide implements mechanism.Actor.
func (c *Chiron) Decide(train bool) ([]float64, error) {
	if train && c.nextE != nil && c.nextRound == c.Env().Round() {
		c.lastStateE = c.nextE
	} else {
		c.lastStateE = c.exteriorState()
	}
	c.nextE = nil
	d, err := c.decide(c.lastStateE, train)
	if err != nil {
		return nil, err
	}
	c.lastD = d
	return d.prices, nil
}

// Observe implements mechanism.Actor: it stores the exterior transition and
// commits the previous round's delayed inner transition now that its next
// state (this round's exterior action) is known.
func (c *Chiron) Observe(res edgeenv.StepResult, train bool) error {
	if !train {
		return nil
	}
	d := c.lastD
	next := c.exteriorState()
	c.pairE.Store(rl.Transition{
		State:     c.lastStateE,
		Action:    d.actE,
		Reward:    res.ExteriorReward,
		NextState: next,
		Done:      res.Done,
		LogProb:   d.lpE,
	})
	if !res.Done {
		c.nextE, c.nextRound = next, c.Env().Round()
	}
	if c.pending != nil {
		c.pairI.Store(rl.Transition{
			State:     c.pending.d.stateI,
			Action:    c.pending.d.actI,
			Reward:    c.pending.r,
			NextState: d.stateI,
			Done:      false,
			LogProb:   c.pending.d.lpI,
		})
	}
	c.pending = &pendingInner{d: d, r: res.InnerReward}
	if res.Done {
		c.flushPending()
	}
	return nil
}

// Discard implements mechanism.Actor: the attempted round was discarded
// (budget exhausted, Sec. V-A), so no transition is stored for it and the
// previously committed round was in fact terminal.
func (c *Chiron) Discard(train bool) {
	if !train {
		return
	}
	c.pairE.Buf.MarkLastDone()
	if c.pending != nil {
		c.pairI.Store(rl.Transition{
			State:     c.pending.d.stateI,
			Action:    c.pending.d.actI,
			Reward:    c.pending.r,
			NextState: c.lastD.stateI,
			Done:      true,
			LogProb:   c.pending.d.lpI,
		})
		c.pending = nil
	}
}

// flushPending commits a still-queued inner transition as terminal, using
// its own state as the next state (the episode produced no further round).
func (c *Chiron) flushPending() {
	p := c.pending
	if p == nil {
		return
	}
	c.pairI.Store(rl.Transition{
		State:     p.d.stateI,
		Action:    p.d.actI,
		Reward:    p.r,
		NextState: p.d.stateI,
		Done:      true,
		LogProb:   p.d.lpI,
	})
	c.pending = nil
}

// EndEpisode implements mechanism.Actor: it flushes any queued inner
// transition and runs the Algorithm 1 end-of-episode schedule — decay every
// episode, deferred batched PPO updates gated on the exterior buffer.
func (c *Chiron) EndEpisode(train bool) error {
	c.nextE = nil
	if !train {
		return nil
	}
	c.flushPending()
	return c.sched.EndEpisode()
}

// Evaluate plays episodes episodes with deterministic (mean) actions and no
// learning, returning the mean of each metric.
func (c *Chiron) Evaluate(episodes int) (mechanism.EpisodeResult, error) {
	return mechanism.Evaluate(c, episodes)
}

// PriceVector reproduces the deterministic pricing decision for the current
// environment state without stepping the environment — useful for
// inspecting a trained policy.
func (c *Chiron) PriceVector() ([]float64, error) {
	d, err := c.decide(c.exteriorState(), false)
	if err != nil {
		return nil, err
	}
	return mat.CloneVec(d.prices), nil
}
