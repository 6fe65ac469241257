// Package baselines implements the two comparison mechanisms of Sec. VI:
// the single-agent DRL-based approach of Zhan et al. (INFOCOM'20) and the
// replay-buffer Greedy strategy, plus a static Uniform reference used by
// ablation benchmarks. All four run through the shared agent stack — the
// internal/policy encoders and heads, the internal/rl learner core, and the
// mechanism.Driver episode loop.
package baselines

import (
	"fmt"
	"math/rand"

	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
	"chiron/internal/policy"
	"chiron/internal/rl"
)

// RewardMode selects the DRL-based baseline's myopic objective.
type RewardMode int

// The two single-round objectives.
const (
	// RewardServerRound scores each round with the same per-round server
	// reward Chiron's exterior agent receives (λΔA − w·T_k). This is the
	// paper's comparison methodology: identical optimization goal,
	// single-agent architecture, no budget awareness.
	RewardServerRound RewardMode = iota + 1
	// RewardTimeEnergy is the original objective of [8]: minimize the
	// round's learning time and compensated node energy, with no
	// model-accuracy term. Kept as an ablation.
	RewardTimeEnergy
)

// DRLBasedConfig parameterizes the single-agent baseline.
type DRLBasedConfig struct {
	// PPO holds the agent's hyperparameters (the paper gives it the same
	// standard PPO machinery as Chiron).
	PPO rl.PPOConfig
	// Mode selects the myopic objective (default RewardServerRound).
	Mode RewardMode
	// EnergyWeight is κ in the RewardTimeEnergy objective
	// r_k = −T_k − κ·ΣE_{i,k}.
	EnergyWeight float64
	// RewardScale rescales rewards to O(1) before they enter the replay
	// buffer (learner conditioning only).
	RewardScale float64
	// Seed drives the agent's stochasticity.
	Seed int64
}

// DefaultDRLBasedConfig mirrors the paper's baseline setup. The discount
// factor is zero: the original work "only derive[s] the optimal solution of
// single round", so its agent optimizes each round's reward in isolation
// with no credit flowing across rounds.
func DefaultDRLBasedConfig() DRLBasedConfig {
	cfg := DRLBasedConfig{PPO: rl.DefaultPPOConfig(), Mode: RewardServerRound, EnergyWeight: 0.1, RewardScale: 0.01, Seed: 1}
	cfg.PPO.Gamma = 0
	return cfg
}

// DRLBased is the state-of-the-art comparison from [8]: one PPO agent
// directly outputs the full per-node price vector each round and optimizes
// the single-round (myopic) objective. Its observation (the myopic encoder)
// omits the remaining budget — the defining difference from Chiron's
// long-term exterior agent — and its reward carries no model-accuracy term.
type DRLBased struct {
	cfg   DRLBasedConfig
	env   *edgeenv.Env
	obs   *policy.Concat           // history-only myopic observation
	head  policy.BoundedVectorHead // per-node price head
	pair  *rl.Pair
	sched *rl.Scheduler
	drv   *mechanism.Driver
	src   *rl.CountingSource
	rng   *rand.Rand

	// Per-round actor scratch, valid between Decide and Observe.
	lastState []float64
	lastAct   []float64
	lastLP    float64
}

var (
	_ mechanism.Mechanism    = (*DRLBased)(nil)
	_ mechanism.Actor        = (*DRLBased)(nil)
	_ mechanism.Checkpointer = (*DRLBased)(nil)
)

// NewDRLBased builds the baseline bound to env.
func NewDRLBased(env *edgeenv.Env, cfg DRLBasedConfig) (*DRLBased, error) {
	if err := cfg.PPO.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: drl-based: %w", err)
	}
	if cfg.EnergyWeight < 0 {
		return nil, fmt.Errorf("baselines: drl-based energy weight %v, want >= 0", cfg.EnergyWeight)
	}
	if cfg.RewardScale <= 0 {
		return nil, fmt.Errorf("baselines: drl-based reward scale %v, want > 0", cfg.RewardScale)
	}
	if cfg.Mode != RewardServerRound && cfg.Mode != RewardTimeEnergy {
		return nil, fmt.Errorf("baselines: drl-based reward mode %d", cfg.Mode)
	}
	src := rl.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	obs, err := policy.NewMyopicEncoder(env)
	if err != nil {
		return nil, fmt.Errorf("baselines: drl-based encoder: %w", err)
	}
	agent, err := rl.NewPPO(rng, obs.Dim(), env.NumNodes(), cfg.PPO)
	if err != nil {
		return nil, fmt.Errorf("baselines: drl-based agent: %w", err)
	}
	d := &DRLBased{
		cfg: cfg,
		env: env,
		obs: obs,
		// The action square covers the same feasible region as Chiron's
		// total-price simplex.
		head: policy.BoundedVectorHead{Lo: 0, Hi: env.MaxTotalPrice() / float64(env.NumNodes())},
		pair: rl.NewPair("agent", agent, cfg.RewardScale),
		src:  src,
		rng:  rng,
	}
	// Update-then-decay: nothing happens on an episode that produced no
	// samples; otherwise update every episode (no cross-episode batching).
	d.sched = &rl.Scheduler{Pairs: []*rl.Pair{d.pair}, Gate: 0, MinSamples: 1}
	d.drv = mechanism.NewDriver("drl-based", env, d)
	return d, nil
}

// Name implements mechanism.Mechanism.
func (d *DRLBased) Name() string { return "DRL-based" }

// Env implements mechanism.Mechanism.
func (d *DRLBased) Env() *edgeenv.Env { return d.env }

// Agent exposes the underlying PPO learner.
func (d *DRLBased) Agent() *rl.PPO { return d.pair.Agent }

// Episode returns the number of training episodes completed.
func (d *DRLBased) Episode() int { return d.drv.Episode() }

// SetRoundHook installs a pre-round callback on the episode driver (see
// mechanism.Driver.SetRoundHook).
func (d *DRLBased) SetRoundHook(hook func(episode, round int) error) { d.drv.SetRoundHook(hook) }

// Decide implements mechanism.Actor.
func (d *DRLBased) Decide(train bool) ([]float64, error) {
	d.lastState = d.obs.State()
	var err error
	if train {
		d.lastAct, d.lastLP, err = d.pair.Agent.Act(d.rng, d.lastState)
	} else {
		d.lastAct, err = d.pair.Agent.ActDeterministic(d.lastState)
	}
	if err != nil {
		return nil, fmt.Errorf("baselines: drl-based act: %w", err)
	}
	return d.head.Prices(d.lastAct), nil
}

// Observe implements mechanism.Actor.
func (d *DRLBased) Observe(res edgeenv.StepResult, train bool) error {
	if !train {
		return nil
	}
	d.pair.Store(rl.Transition{
		State:     d.lastState,
		Action:    d.lastAct,
		Reward:    d.myopicReward(res),
		NextState: d.obs.State(),
		Done:      res.Done,
		LogProb:   d.lastLP,
	})
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
	if !train {
		return nil
	}
	if err := d.sched.EndEpisode(); err != nil {
		return fmt.Errorf("baselines: drl-based update: %w", err)
	}
	return nil
}

// RunEpisode implements mechanism.Mechanism.
func (d *DRLBased) RunEpisode(train bool) (mechanism.EpisodeResult, error) {
	return d.drv.RunEpisode(train)
}

// myopicReward scores one round under the configured single-round
// objective; neither mode carries any view of the remaining budget.
func (d *DRLBased) myopicReward(res edgeenv.StepResult) float64 {
	if d.cfg.Mode == RewardServerRound {
		return res.ExteriorReward
	}
	var energy float64
	for i, node := range d.env.Nodes() {
		if f := res.Round.Freqs[i]; f > 0 {
			energy += node.Energy(f)
		}
	}
	return -res.Round.RoundTime() - d.cfg.EnergyWeight*energy
}

// Train runs training episodes, mirroring core.Chiron.Train.
func (d *DRLBased) Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error) {
	return d.drv.Train(episodes, callback)
}

// drlCheckpointMechanism tags DRL-based checkpoints in the unified format.
const drlCheckpointMechanism = "drl-based"

// Checkpoint captures the baseline's training state in the unified format.
func (d *DRLBased) Checkpoint() *rl.Checkpoint {
	rng := d.src.State()
	return &rl.Checkpoint{
		Mechanism: drlCheckpointMechanism,
		Nodes:     d.env.NumNodes(),
		StateDim:  d.obs.Dim(),
		Episode:   d.drv.Episode(),
		RNG:       &rng,
		Agents:    []rl.AgentState{rl.PairState(d.pair)},
	}
}

// Restore overwrites the baseline's training state from a checkpoint taken
// on an identically shaped system.
func (d *DRLBased) Restore(ck *rl.Checkpoint) error {
	if err := rl.CheckPins(ck, drlCheckpointMechanism, d.env.NumNodes(), d.obs.Dim(), d.pair.Name); err != nil {
		return err
	}
	if err := rl.RestorePair(d.pair, ck.Agent(d.pair.Name)); err != nil {
		return fmt.Errorf("baselines: restore drl-based: %w", err)
	}
	d.drv.SetEpisode(ck.Episode)
	if ck.RNG != nil {
		if err := d.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("baselines: restore rng: %w", err)
		}
	}
	return nil
}

// SaveCheckpoint writes the baseline's training state as JSON to path.
func (d *DRLBased) SaveCheckpoint(path string) error {
	return rl.SaveCheckpoint(path, d.Checkpoint())
}

// LoadCheckpoint restores the baseline's training state from a
// SaveCheckpoint file.
func (d *DRLBased) LoadCheckpoint(path string) error {
	ck, err := rl.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	return d.Restore(ck)
}
