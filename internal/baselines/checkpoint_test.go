package baselines

import (
	"errors"
	"path/filepath"
	"testing"

	"chiron/internal/core"
	"chiron/internal/rl"
)

// learner is the checkpoint surface the three learnable mechanisms share.
type learner interface {
	Restore(*rl.Checkpoint) error
	SaveCheckpoint(path string) error
	LoadCheckpoint(path string) error
}

// checkpointKind builds one learnable mechanism on a nodes-wide fleet and
// returns it with its current checkpoint.
type checkpointKind struct {
	name  string
	build func(t *testing.T, nodes int) (learner, *rl.Checkpoint)
}

var checkpointKinds = []checkpointKind{
	{"chiron", func(t *testing.T, nodes int) (learner, *rl.Checkpoint) {
		c, err := core.New(testEnv(t, nodes, 100), core.DefaultConfig())
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return c, c.Checkpoint()
	}},
	{"drl-based", func(t *testing.T, nodes int) (learner, *rl.Checkpoint) {
		d, err := NewDRLBased(testEnv(t, nodes, 100), DefaultDRLBasedConfig())
		if err != nil {
			t.Fatalf("NewDRLBased: %v", err)
		}
		return d, d.Checkpoint()
	}},
	{"greedy", func(t *testing.T, nodes int) (learner, *rl.Checkpoint) {
		g, err := NewGreedy(testEnv(t, nodes, 100), DefaultGreedyConfig())
		if err != nil {
			t.Fatalf("NewGreedy: %v", err)
		}
		ck, err := g.Checkpoint()
		if err != nil {
			t.Fatalf("Greedy.Checkpoint: %v", err)
		}
		return g, ck
	}},
}

// TestCheckpointPins runs every learnable mechanism's restore through the
// shared pin check: its own checkpoint round-trips through a file, the
// other mechanisms' checkpoints and a 6-node checkpoint of its own kind
// are shape mismatches, and a checkpoint missing its agent snapshots or
// Greedy's replay buffer is corrupt.
func TestCheckpointPins(t *testing.T) {
	checkpoints := make(map[string]*rl.Checkpoint, len(checkpointKinds))
	for _, k := range checkpointKinds {
		_, checkpoints[k.name] = k.build(t, 3)
	}
	for _, k := range checkpointKinds {
		t.Run(k.name, func(t *testing.T) {
			m, own := k.build(t, 3)
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := m.SaveCheckpoint(path); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			if err := m.LoadCheckpoint(path); err != nil {
				t.Fatalf("LoadCheckpoint of its own file: %v", err)
			}
			if err := m.Restore(nil); err == nil {
				t.Error("restored a nil checkpoint")
			}
			for name, ck := range checkpoints {
				if name == k.name {
					continue
				}
				if err := m.Restore(ck); !errors.Is(err, rl.ErrShapeMismatch) {
					t.Errorf("%s checkpoint: err %v, want ErrShapeMismatch", name, err)
				}
			}
			_, wide := k.build(t, 6)
			if err := m.Restore(wide); !errors.Is(err, rl.ErrShapeMismatch) {
				t.Errorf("6-node checkpoint: err %v, want ErrShapeMismatch", err)
			}
			damaged := *own
			if k.name == "greedy" {
				damaged.Extra = nil
			} else {
				damaged.Agents = damaged.Agents[1:]
			}
			if err := m.Restore(&damaged); !errors.Is(err, rl.ErrCorruptCheckpoint) {
				t.Errorf("damaged checkpoint: err %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}
