package core

import (
	"fmt"

	"chiron/internal/rl"
)

// Checkpoint is the unified serializable training state shared by every
// learnable mechanism; see rl.Checkpoint for the format.
type Checkpoint = rl.Checkpoint

// ErrCorruptCheckpoint reports a checkpoint file that cannot be restored:
// truncated mid-write, invalid JSON, or structurally incomplete (missing
// either agent's snapshot). It aliases the unified rl sentinel so callers
// can errors.Is against either name.
var ErrCorruptCheckpoint = rl.ErrCorruptCheckpoint

// checkpointMechanism tags Chiron checkpoints in the unified format.
const checkpointMechanism = "chiron"

// Checkpoint captures the agent's current training state: both layers'
// snapshots and carried buffers, the episode counter, and the mechanism RNG
// position — everything needed to resume training exactly.
func (c *Chiron) Checkpoint() *Checkpoint {
	rng := c.src.State()
	return &Checkpoint{
		Mechanism: checkpointMechanism,
		Nodes:     c.env.NumNodes(),
		StateDim:  c.obs.Dim(),
		Episode:   c.drv.Episode(),
		RNG:       &rng,
		Agents:    []rl.AgentState{rl.PairState(c.pairE), rl.PairState(c.pairI)},
	}
}

// Restore overwrites the agent's training state from a checkpoint taken on
// an identically shaped system.
func (c *Chiron) Restore(ck *Checkpoint) error {
	if err := rl.CheckPins(ck, checkpointMechanism, c.env.NumNodes(), c.obs.Dim(), c.pairE.Name, c.pairI.Name); err != nil {
		return err
	}
	if err := rl.RestorePair(c.pairE, ck.Agent(c.pairE.Name)); err != nil {
		return fmt.Errorf("core: restore exterior: %w", err)
	}
	if err := rl.RestorePair(c.pairI, ck.Agent(c.pairI.Name)); err != nil {
		return fmt.Errorf("core: restore inner: %w", err)
	}
	c.drv.SetEpisode(ck.Episode)
	c.pending = nil
	if ck.RNG != nil {
		if err := c.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("core: restore rng: %w", err)
		}
	}
	return nil
}

// SaveCheckpoint writes the agent's training state as JSON to path.
func (c *Chiron) SaveCheckpoint(path string) error {
	return rl.SaveCheckpoint(path, c.Checkpoint())
}

// LoadCheckpoint restores the agent's training state from a JSON file
// written by SaveCheckpoint. A file truncated mid-write or otherwise
// unparseable fails with an error wrapping ErrCorruptCheckpoint, and the
// agent's in-memory state is left untouched.
func (c *Chiron) LoadCheckpoint(path string) error {
	ck, err := rl.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	return c.Restore(ck)
}
