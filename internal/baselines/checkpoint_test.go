package baselines

import (
	"errors"
	"path/filepath"
	"testing"

	"chiron/internal/core"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// checkpointKind builds one learnable mechanism on a nodes-wide fleet.
type checkpointKind struct {
	name  string
	build func(t *testing.T, nodes int) mechanism.Checkpointer
}

var checkpointKinds = []checkpointKind{
	{"chiron", func(t *testing.T, nodes int) mechanism.Checkpointer {
		c, err := core.New(testEnv(t, nodes, 100), core.DefaultConfig())
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return c
	}},
	{"drl-based", func(t *testing.T, nodes int) mechanism.Checkpointer {
		d, err := NewDRLBased(testEnv(t, nodes, 100), DefaultDRLBasedConfig())
		if err != nil {
			t.Fatalf("NewDRLBased: %v", err)
		}
		return d
	}},
	{"greedy", func(t *testing.T, nodes int) mechanism.Checkpointer {
		g, err := NewGreedy(testEnv(t, nodes, 100), DefaultGreedyConfig())
		if err != nil {
			t.Fatalf("NewGreedy: %v", err)
		}
		return g
	}},
}

// checkpointOf takes m's current checkpoint.
func checkpointOf(t *testing.T, m mechanism.Checkpointer) *rl.Checkpoint {
	t.Helper()
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return ck
}

// TestCheckpointPins runs every learnable mechanism's restore through the
// shared pin check: its own checkpoint round-trips through a file, the
// other mechanisms' checkpoints and a 6-node checkpoint of its own kind
// are shape mismatches, and a checkpoint missing its agent snapshots or
// Greedy's replay buffer is corrupt.
func TestCheckpointPins(t *testing.T) {
	checkpoints := make(map[string]*rl.Checkpoint, len(checkpointKinds))
	for _, k := range checkpointKinds {
		checkpoints[k.name] = checkpointOf(t, k.build(t, 3))
	}
	for _, k := range checkpointKinds {
		t.Run(k.name, func(t *testing.T) {
			m := k.build(t, 3)
			own := checkpointOf(t, m)
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := rl.SaveCheckpoint(path, own); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			loaded, err := rl.LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			if err := m.Restore(loaded); err != nil {
				t.Fatalf("Restore of its own file: %v", err)
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
			wide := checkpointOf(t, k.build(t, 6))
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
