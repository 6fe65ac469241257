package mechanism

import (
	"fmt"

	"chiron/internal/edgeenv"
	"chiron/internal/rl"
)

// Actor is the per-round decision surface a mechanism plugs into the shared
// episode Driver. Implementations own their observation and price head
// (and, for learners, internal/rl pairs) — the driver owns the episode
// loop, reward accumulation, and summary so all five mechanisms share one
// control flow.
type Actor interface {
	// Decide returns the per-node price vector for the current environment
	// state. With train set, learners sample stochastically and remember
	// what they need to store the transition in Observe.
	Decide(train bool) ([]float64, error)
	// Observe processes a committed (or empty) round's outcome — storing
	// transitions, scoring replay entries, and so on.
	Observe(res edgeenv.StepResult, train bool) error
	// Discard handles the budget-exhaustion terminal: the attempted round
	// was discarded (Sec. V-A), so the previously committed round was in
	// fact the final one.
	Discard(train bool)
	// EndEpisode runs the actor's end-of-episode learner work (buffer
	// flushes, PPO updates, decay schedules). Called after the episode
	// summary for training and evaluation episodes alike.
	EndEpisode(train bool) error
}

// Driver runs full episodes of one actor against one environment — the
// single episode loop behind every mechanism's RunEpisode and Train. The
// learners embed it, so its Name, Env, Episode, SetRoundHook, RunEpisode
// and Train are theirs. Static references hold one unexported instead:
// embedding would promote Train and make them mechanism.Trainable.
type Driver struct {
	name      string
	env       *edgeenv.Env
	actor     Actor
	episode   int
	roundHook func(episode, round int) error
}

// NewDriver binds actor to env. name is the mechanism's display name; it
// also labels training errors.
func NewDriver(name string, env *edgeenv.Env, actor Actor) *Driver {
	return &Driver{name: name, env: env, actor: actor}
}

// Name implements Mechanism.
func (d *Driver) Name() string { return d.name }

// Env implements Mechanism.
func (d *Driver) Env() *edgeenv.Env { return d.env }

// Episode returns the number of episodes completed.
func (d *Driver) Episode() int { return d.episode }

// SetEpisode overwrites the episode counter (checkpoint restore).
func (d *Driver) SetEpisode(n int) { d.episode = n }

// SetRoundHook installs a callback invoked before every round's Decide
// with the 0-based episode index in progress and the upcoming 1-based
// round index. A hook error aborts the episode with that error — the
// injection point the supervisor's chaos tests use to kill a run at an
// exact round. Nil removes the hook.
func (d *Driver) SetRoundHook(hook func(episode, round int) error) { d.roundHook = hook }

// RunEpisode plays one full episode: reset, decide/step/observe until the
// environment terminates, summarize from the ledger, then hand the actor
// its end-of-episode learner work.
func (d *Driver) RunEpisode(train bool) (EpisodeResult, error) {
	if err := d.env.Reset(); err != nil {
		return EpisodeResult{}, err
	}
	ext := NewReturns()
	var innReturn float64
	for !d.env.Done() {
		if d.roundHook != nil {
			if err := d.roundHook(d.episode, d.env.Round()); err != nil {
				return EpisodeResult{}, err
			}
		}
		prices, err := d.actor.Decide(train)
		if err != nil {
			return EpisodeResult{}, err
		}
		res, err := d.env.Step(prices)
		if err != nil {
			return EpisodeResult{}, err
		}
		if res.Done && res.Round.Participants == 0 {
			// Budget exhausted: the round was discarded, nothing is recorded
			// (Sec. V-A) and no reward is accumulated for it.
			d.actor.Discard(train)
			break
		}
		ext.Add(res.ExteriorReward)
		innReturn += res.InnerReward
		if err := d.actor.Observe(res, train); err != nil {
			return EpisodeResult{}, err
		}
		if res.Done {
			break
		}
	}
	d.episode++
	result := Summarize(d.env, d.episode, ext, innReturn)
	if err := d.actor.EndEpisode(train); err != nil {
		return EpisodeResult{}, err
	}
	return result, nil
}

// Train runs the outer training loop of Algorithm 1 for the given number of
// episodes, invoking callback (if non-nil) after each, and returns the
// per-episode results — the learning curves of Figs. 3 and 7(a).
func (d *Driver) Train(episodes int, callback func(EpisodeResult)) ([]EpisodeResult, error) {
	if episodes <= 0 {
		return nil, fmt.Errorf("mechanism: train %d episodes, want > 0", episodes)
	}
	results := make([]EpisodeResult, 0, episodes)
	for ep := 0; ep < episodes; ep++ {
		n := d.episode + 1 // the mechanism's count, not this call's index
		res, err := d.RunEpisode(true)
		if err != nil {
			return results, fmt.Errorf("mechanism: %s episode %d: %w", d.name, n, err)
		}
		results = append(results, res)
		if callback != nil {
			callback(res)
		}
	}
	return results, nil
}

// Checkpointer is the optional checkpoint surface the learnable mechanisms
// implement on top of Mechanism. Checkpoints are values in the unified
// rl.Checkpoint format; reading and writing them as files is
// rl.SaveCheckpoint and rl.LoadCheckpoint.
type Checkpointer interface {
	// Checkpoint captures the mechanism's complete training state.
	Checkpoint() (*rl.Checkpoint, error)
	// Restore overwrites the training state from a checkpoint taken on an
	// identically shaped system. Failures wrap rl.ErrCorruptCheckpoint or
	// rl.ErrShapeMismatch.
	Restore(ck *rl.Checkpoint) error
	// Episode reports the number of training episodes completed.
	Episode() int
}
