package core

import (
	"fmt"

	"chiron/internal/rl"
)

// checkpointMechanism tags Chiron checkpoints in the unified format.
const checkpointMechanism = "chiron"

// Checkpoint implements mechanism.Checkpointer: both layers' snapshots and
// carried buffers, the episode counter, and the mechanism RNG position —
// everything needed to resume training exactly.
func (c *Chiron) Checkpoint() (*rl.Checkpoint, error) {
	rng := c.src.State()
	return &rl.Checkpoint{
		Mechanism: checkpointMechanism,
		Nodes:     c.Env().NumNodes(),
		StateDim:  c.stateDim,
		Episode:   c.Episode(),
		RNG:       &rng,
		Agents:    []rl.AgentState{rl.PairState(c.pairE), rl.PairState(c.pairI)},
	}, nil
}

// Restore implements mechanism.Checkpointer.
func (c *Chiron) Restore(ck *rl.Checkpoint) error {
	if err := rl.CheckPins(ck, checkpointMechanism, c.Env().NumNodes(), c.stateDim, c.pairE.Name, c.pairI.Name); err != nil {
		return err
	}
	if err := rl.RestorePair(c.pairE, ck.Agent(c.pairE.Name)); err != nil {
		return fmt.Errorf("core: restore exterior: %w", err)
	}
	if err := rl.RestorePair(c.pairI, ck.Agent(c.pairI.Name)); err != nil {
		return fmt.Errorf("core: restore inner: %w", err)
	}
	c.SetEpisode(ck.Episode)
	c.pending, c.nextE = nil, nil
	if ck.RNG != nil {
		if err := c.src.Restore(*ck.RNG); err != nil {
			return fmt.Errorf("core: restore rng: %w", err)
		}
	}
	return nil
}
