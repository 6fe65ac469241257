// Package baselines implements the two comparison mechanisms of Sec. VI:
// the single-agent DRL-based approach of Zhan et al. (INFOCOM'20) and the
// replay-buffer Greedy strategy, plus a static Uniform reference used by
// ablation benchmarks. All four run through the mechanism.Driver episode
// loop; the DRL-based baseline learns with the internal/rl learner core.
package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// DRLBasedConfig parameterizes the single-agent baseline.
type DRLBasedConfig struct {
	// PPO holds the agent's hyperparameters (the paper gives it the same
	// standard PPO machinery as Chiron).
	PPO rl.PPOConfig
	// Seed drives the agent's stochasticity.
	Seed int64
}

// DefaultDRLBasedConfig mirrors the paper's baseline setup. The discount
// factor is zero: the original work "only derive[s] the optimal solution of
// single round", so its agent optimizes each round's reward in isolation
// with no credit flowing across rounds.
func DefaultDRLBasedConfig() DRLBasedConfig {
	cfg := DRLBasedConfig{PPO: rl.DefaultPPOConfig(), Seed: 1}
	cfg.PPO.Gamma = 0
	return cfg
}

// DRLBased is the state-of-the-art comparison from [8]: one PPO agent
// directly outputs the full per-node price vector each round and optimizes
// the single-round (myopic) objective. It scores each round with the same
// per-round server reward Chiron's exterior agent receives (λΔA − w·T_k):
// the paper's comparison methodology of an identical optimization goal, a
// single-agent architecture and no budget awareness. Its observation is
// the history window only: it omits the remaining budget and round index —
// the defining difference from Chiron's long-term exterior agent.
type DRLBased struct {
	*mechanism.Driver
	// priceHi bounds each node's price: the action square [0, priceHi]^N
	// covers the same feasible region as Chiron's total-price simplex.
	priceHi float64
	pair    *rl.Pair
	sched   *rl.Scheduler
	src     *rl.CountingSource
	rng     *rand.Rand

	// Per-round actor scratch, valid between Decide and Observe.
	lastState []float64
	lastAct   []float64
	lastLP    float64
	// next is the NextState a training Observe rendered, reused by the
	// training Decide of round nextRound (the key keeps an episode a round
	// hook abandoned from feeding the next one): one render per round.
	next      []float64
	nextRound int
}

var (
	_ mechanism.Mechanism    = (*DRLBased)(nil)
	_ mechanism.Actor        = (*DRLBased)(nil)
	_ mechanism.Checkpointer = (*DRLBased)(nil)
)

// NewDRLBased builds the baseline bound to env.
func NewDRLBased(env *edgeenv.Env, cfg DRLBasedConfig) (*DRLBased, error) {
	src := rl.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	agent, err := rl.NewPPO(rng, env.HistoryDim(), env.NumNodes(), cfg.PPO)
	if err != nil {
		return nil, fmt.Errorf("baselines: drl-based agent: %w", err)
	}
	d := &DRLBased{
		priceHi: env.MaxTotalPrice() / float64(env.NumNodes()),
		pair:    rl.NewPair("agent", agent),
		src:     src,
		rng:     rng,
	}
	// Update-then-decay: nothing happens on an episode that produced no
	// samples; otherwise update every episode (no cross-episode batching).
	d.sched = &rl.Scheduler{Pairs: []*rl.Pair{d.pair}, MinSamples: 1}
	d.Driver = mechanism.NewDriver("DRL-based", env, d)
	return d, nil
}

// Agent exposes the underlying PPO learner.
func (d *DRLBased) Agent() *rl.PPO { return d.pair.Agent }

// state renders the myopic observation: the history window alone.
func (d *DRLBased) state() []float64 {
	s := make([]float64, d.Env().HistoryDim())
	d.Env().History(s)
	return s
}

// prices maps each pre-squash action component independently into
// (0, priceHi) via a sigmoid.
func (d *DRLBased) prices(u []float64) []float64 {
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = d.priceHi / (1 + math.Exp(-v))
	}
	return out
}

// Decide implements mechanism.Actor.
func (d *DRLBased) Decide(train bool) ([]float64, error) {
	if train && d.next != nil && d.nextRound == d.Env().Round() {
		d.lastState = d.next
	} else {
		d.lastState = d.state()
	}
	d.next = nil
	var err error
	if train {
		d.lastAct, d.lastLP, err = d.pair.Agent.Act(d.rng, d.lastState)
	} else {
		d.lastAct, err = d.pair.Agent.ActDeterministic(d.lastState)
	}
	if err != nil {
		return nil, fmt.Errorf("baselines: drl-based act: %w", err)
	}
	return d.prices(d.lastAct), nil
}

// Observe implements mechanism.Actor.
func (d *DRLBased) Observe(res edgeenv.StepResult, train bool) error {
	if !train {
		return nil
	}
	next := d.state()
	d.pair.Store(rl.Transition{
		State:     d.lastState,
		Action:    d.lastAct,
		Reward:    res.ExteriorReward,
		NextState: next,
		Done:      res.Done,
		LogProb:   d.lastLP,
	})
	if !res.Done {
		d.next, d.nextRound = next, d.Env().Round()
	}
	return nil
}

// Discard implements mechanism.Actor: the discarded budget-overrun round
// stores nothing, so the previous committed round was terminal.
func (d *DRLBased) Discard(train bool) {
	if train {
		d.pair.Buf.MarkLastDone()
	}
}

// EndEpisode implements mechanism.Actor.
func (d *DRLBased) EndEpisode(train bool) error {
	d.next = nil
	if !train {
		return nil
	}
	if err := d.sched.EndEpisode(); err != nil {
		return fmt.Errorf("baselines: drl-based update: %w", err)
	}
	return nil
}

// drlCheckpointMechanism tags DRL-based checkpoints in the unified format.
const drlCheckpointMechanism = "drl-based"

// Checkpoint implements mechanism.Checkpointer.
func (d *DRLBased) Checkpoint() (*rl.Checkpoint, error) {
	rng := d.src.State()
	return &rl.Checkpoint{
		Mechanism: drlCheckpointMechanism,
		Nodes:     d.Env().NumNodes(),
		StateDim:  d.Env().HistoryDim(),
		Episode:   d.Episode(),
		RNG:       &rng,
		Agents:    []rl.AgentState{rl.PairState(d.pair)},
	}, nil
}

// Restore implements mechanism.Checkpointer.
func (d *DRLBased) Restore(ck *rl.Checkpoint) error {
	if err := rl.CheckPins(ck, drlCheckpointMechanism, d.Env().NumNodes(), d.Env().HistoryDim(), d.pair.Name); err != nil {
		return err
	}
	if err := rl.RestorePair(d.pair, ck.Agent(d.pair.Name)); err != nil {
		return fmt.Errorf("baselines: restore drl-based: %w", err)
	}
	d.SetEpisode(ck.Episode)
	d.next = nil
	if ck.RNG != nil {
		if err := d.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("baselines: restore rng: %w", err)
		}
	}
	return nil
}
