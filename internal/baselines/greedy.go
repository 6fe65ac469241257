package baselines

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"chiron/internal/edgeenv"
	"chiron/internal/mat"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// emaKeep/emaNew weight the old and new scores when re-scoring a tried
// action; the exponential moving average keeps scores current as the
// accuracy curve's marginal returns shrink. Both are literals (not 1−emaKeep)
// so the arithmetic is bit-identical to the pre-refactor traces.
const (
	emaKeep = 0.9
	emaNew  = 0.1
)

// ScoredAction is one replay entry: a price vector with its observed
// per-round reward score. Fields are exported for checkpoint serialization.
type ScoredAction struct {
	Prices []float64 `json:"prices"`
	Reward float64   `json:"reward"`
	Tried  bool      `json:"tried"`
}

// GreedyConfig parameterizes the Greedy baseline.
type GreedyConfig struct {
	// WarmupActions seeds the replay buffer with random price vectors.
	WarmupActions int
	// Epsilon is the exploration probability: with probability Epsilon a
	// new random action is tried instead of the best known one.
	Epsilon float64
	// Seed drives the baseline's stochasticity.
	Seed int64
}

// DefaultGreedyConfig mirrors the paper's description: a random warmup
// buffer, then exploit-with-high-probability.
func DefaultGreedyConfig() GreedyConfig {
	return GreedyConfig{WarmupActions: 32, Epsilon: 0.1, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c GreedyConfig) Validate() error {
	if c.WarmupActions <= 0 {
		return fmt.Errorf("baselines: greedy warmup %d, want > 0", c.WarmupActions)
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("baselines: greedy epsilon %v outside [0,1]", c.Epsilon)
	}
	return nil
}

// Greedy is the paper's second baseline: an ε-greedy replay strategy that
// fills a buffer with random price vectors, scores them by observed
// per-round reward, and replays the best-scoring action with probability
// 1−ε while exploring new random actions with probability ε. It has no
// learning-time structure and no budget pacing.
type Greedy struct {
	*mechanism.Driver
	epsilon float64
	replay  []ScoredAction // grows with exploration
	src     *rl.CountingSource
	rng     *rand.Rand

	// lastIdx is the replay entry selected by the latest Decide.
	lastIdx int
}

var (
	_ mechanism.Mechanism    = (*Greedy)(nil)
	_ mechanism.Actor        = (*Greedy)(nil)
	_ mechanism.Checkpointer = (*Greedy)(nil)
)

// NewGreedy builds the baseline bound to env and pre-fills the replay
// buffer with random actions.
func NewGreedy(env *edgeenv.Env, cfg GreedyConfig) (*Greedy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rl.NewCountingSource(cfg.Seed)
	g := &Greedy{epsilon: cfg.Epsilon, src: src, rng: rand.New(src)}
	for i := 0; i < cfg.WarmupActions; i++ {
		g.replay = append(g.replay, ScoredAction{Prices: env.RandomPrices(g.rng)})
	}
	g.Driver = mechanism.NewDriver("Greedy", env, g)
	return g, nil
}

// bestIndex returns the index of the highest-reward tried action, or a
// random untried one when nothing has been scored yet.
func (g *Greedy) bestIndex() int {
	best := -1
	for i := range g.replay {
		if !g.replay[i].Tried {
			continue
		}
		if best == -1 || g.replay[i].Reward > g.replay[best].Reward {
			best = i
		}
	}
	if best == -1 {
		return g.rng.Intn(len(g.replay))
	}
	return best
}

// Decide implements mechanism.Actor: it posts a copy of the best known
// action or — when training — a fresh random action with probability ε.
// The RNG draw order (best-index tiebreak first, then the ε coin) is pinned
// by the golden traces.
func (g *Greedy) Decide(train bool) ([]float64, error) {
	g.lastIdx = g.bestIndex()
	if train && g.rng.Float64() < g.epsilon {
		g.replay = append(g.replay, ScoredAction{Prices: g.Env().RandomPrices(g.rng)})
		g.lastIdx = len(g.replay) - 1
	}
	return mat.CloneVec(g.replay[g.lastIdx].Prices), nil
}

// Observe implements mechanism.Actor: with train set the committed round's
// reward folds into the selected action's score — the first observation
// sets it, later ones fold in with an exponential moving average.
func (g *Greedy) Observe(res edgeenv.StepResult, train bool) error {
	if !train {
		return nil
	}
	e := &g.replay[g.lastIdx]
	if !e.Tried {
		e.Tried = true
		e.Reward = res.ExteriorReward
		return nil
	}
	e.Reward = emaKeep*e.Reward + emaNew*res.ExteriorReward
	return nil
}

// Discard implements mechanism.Actor: the discarded round scores nothing.
func (g *Greedy) Discard(bool) {}

// EndEpisode implements mechanism.Actor: the replay strategy has no
// end-of-episode learner work.
func (g *Greedy) EndEpisode(bool) error { return nil }

// greedyCheckpointMechanism tags Greedy checkpoints in the unified format.
const greedyCheckpointMechanism = "greedy"

// greedyExtra is the mechanism-specific payload of a Greedy checkpoint.
type greedyExtra struct {
	Replay []ScoredAction `json:"replay"`
}

// Checkpoint implements mechanism.Checkpointer: the scored replay buffer
// rides in the Extra payload.
func (g *Greedy) Checkpoint() (*rl.Checkpoint, error) {
	extra, err := json.Marshal(greedyExtra{Replay: g.replay})
	if err != nil {
		return nil, fmt.Errorf("baselines: marshal greedy replay: %w", err)
	}
	rng := g.src.State()
	return &rl.Checkpoint{
		Mechanism: greedyCheckpointMechanism,
		Nodes:     g.Env().NumNodes(),
		Episode:   g.Episode(),
		RNG:       &rng,
		Extra:     extra,
	}, nil
}

// Restore implements mechanism.Checkpointer.
func (g *Greedy) Restore(ck *rl.Checkpoint) error {
	if err := rl.CheckPins(ck, greedyCheckpointMechanism, g.Env().NumNodes(), 0); err != nil {
		return err
	}
	if len(ck.Extra) == 0 {
		return fmt.Errorf("%w: missing greedy replay buffer", rl.ErrCorruptCheckpoint)
	}
	var extra greedyExtra
	if err := json.Unmarshal(ck.Extra, &extra); err != nil {
		return fmt.Errorf("%w: parse greedy replay: %v", rl.ErrCorruptCheckpoint, err)
	}
	if len(extra.Replay) == 0 {
		return fmt.Errorf("%w: empty greedy replay buffer", rl.ErrCorruptCheckpoint)
	}
	for i, a := range extra.Replay {
		if len(a.Prices) != g.Env().NumNodes() {
			return fmt.Errorf("%w: replay action %d has %d prices, want %d",
				rl.ErrCorruptCheckpoint, i, len(a.Prices), g.Env().NumNodes())
		}
	}
	// The decoded buffer is freshly allocated, so it is adopted as is.
	g.replay = extra.Replay
	g.SetEpisode(ck.Episode)
	if ck.RNG != nil {
		if err := g.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("baselines: restore rng: %w", err)
		}
	}
	return nil
}
