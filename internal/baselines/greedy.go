package baselines

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
	"chiron/internal/policy"
	"chiron/internal/rl"
)

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

// Greedy is the paper's second baseline: an ε-greedy replay head that fills
// a buffer with random price vectors, scores them by observed per-round
// reward, and replays the best-scoring action with probability 1−ε while
// exploring new random actions with probability ε. It has no learning-time
// structure and no budget pacing.
type Greedy struct {
	cfg  GreedyConfig
	env  *edgeenv.Env
	head *policy.ReplayHead
	drv  *mechanism.Driver
	src  *rl.CountingSource
	rng  *rand.Rand

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
	head, err := policy.NewReplayHead(cfg.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("baselines: greedy: %w", err)
	}
	src := rl.NewCountingSource(cfg.Seed)
	g := &Greedy{cfg: cfg, env: env, head: head, src: src, rng: rand.New(src)}
	for i := 0; i < cfg.WarmupActions; i++ {
		head.Seed(env.RandomPrices(g.rng))
	}
	g.drv = mechanism.NewDriver("greedy", env, g)
	return g, nil
}

// Name implements mechanism.Mechanism.
func (g *Greedy) Name() string { return "Greedy" }

// Env implements mechanism.Mechanism.
func (g *Greedy) Env() *edgeenv.Env { return g.env }

// Episode returns the number of training episodes completed.
func (g *Greedy) Episode() int { return g.drv.Episode() }

// SetRoundHook installs a pre-round callback on the episode driver (see
// mechanism.Driver.SetRoundHook).
func (g *Greedy) SetRoundHook(hook func(episode, round int) error) { g.drv.SetRoundHook(hook) }

// Decide implements mechanism.Actor.
func (g *Greedy) Decide(train bool) ([]float64, error) {
	g.lastIdx = g.head.Select(g.rng, train, func() []float64 {
		return g.env.RandomPrices(g.rng)
	})
	return g.head.Prices(g.lastIdx), nil
}

// Observe implements mechanism.Actor: with train set the committed round's
// reward folds into the selected action's score.
func (g *Greedy) Observe(res edgeenv.StepResult, train bool) error {
	if train {
		g.head.Score(g.lastIdx, res.ExteriorReward)
	}
	return nil
}

// Discard implements mechanism.Actor: the discarded round scores nothing.
func (g *Greedy) Discard(bool) {}

// EndEpisode implements mechanism.Actor: the replay head has no
// end-of-episode learner work.
func (g *Greedy) EndEpisode(bool) error { return nil }

// RunEpisode implements mechanism.Mechanism. With train=true the buffer
// scores update and ε-exploration adds new actions; with train=false the
// best known action is replayed every round.
func (g *Greedy) RunEpisode(train bool) (mechanism.EpisodeResult, error) {
	return g.drv.RunEpisode(train)
}

// Train runs training episodes, mirroring core.Chiron.Train.
func (g *Greedy) Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error) {
	return g.drv.Train(episodes, callback)
}

// greedyCheckpointMechanism tags Greedy checkpoints in the unified format.
const greedyCheckpointMechanism = "greedy"

// greedyExtra is the mechanism-specific payload of a Greedy checkpoint.
type greedyExtra struct {
	Replay []policy.ScoredAction `json:"replay"`
}

// Checkpoint captures the baseline's training state in the unified format:
// the scored replay buffer rides in the Extra payload.
func (g *Greedy) Checkpoint() (*rl.Checkpoint, error) {
	extra, err := json.Marshal(greedyExtra{Replay: g.head.Snapshot()})
	if err != nil {
		return nil, fmt.Errorf("baselines: marshal greedy replay: %w", err)
	}
	rng := g.src.State()
	return &rl.Checkpoint{
		Mechanism: greedyCheckpointMechanism,
		Nodes:     g.env.NumNodes(),
		Episode:   g.drv.Episode(),
		RNG:       &rng,
		Extra:     extra,
	}, nil
}

// Restore overwrites the baseline's training state from a checkpoint taken
// on an identically shaped system.
func (g *Greedy) Restore(ck *rl.Checkpoint) error {
	if err := rl.CheckPins(ck, greedyCheckpointMechanism, g.env.NumNodes(), 0); err != nil {
		return err
	}
	if len(ck.Extra) == 0 {
		return fmt.Errorf("%w: missing greedy replay buffer", rl.ErrCorruptCheckpoint)
	}
	var extra greedyExtra
	if err := json.Unmarshal(ck.Extra, &extra); err != nil {
		return fmt.Errorf("%w: parse greedy replay: %v", rl.ErrCorruptCheckpoint, err)
	}
	for i, a := range extra.Replay {
		if len(a.Prices) != g.env.NumNodes() {
			return fmt.Errorf("%w: replay action %d has %d prices, want %d",
				rl.ErrCorruptCheckpoint, i, len(a.Prices), g.env.NumNodes())
		}
	}
	if err := g.head.Restore(extra.Replay); err != nil {
		return fmt.Errorf("%w: %v", rl.ErrCorruptCheckpoint, err)
	}
	g.drv.SetEpisode(ck.Episode)
	if ck.RNG != nil {
		if err := g.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("baselines: restore rng: %w", err)
		}
	}
	return nil
}

// SaveCheckpoint writes the baseline's training state as JSON to path.
func (g *Greedy) SaveCheckpoint(path string) error {
	ck, err := g.Checkpoint()
	if err != nil {
		return err
	}
	return rl.SaveCheckpoint(path, ck)
}

// LoadCheckpoint restores the baseline's training state from a
// SaveCheckpoint file.
func (g *Greedy) LoadCheckpoint(path string) error {
	ck, err := rl.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	return g.Restore(ck)
}
