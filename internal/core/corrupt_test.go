package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chiron/internal/rl"
)

func TestLoadCheckpointTruncated(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	path := filepath.Join(t.TempDir(), "agent.json")
	saveFile(t, ch, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	torn := filepath.Join(t.TempDir(), "torn.json")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	env2 := testEnv(t, 2, 100)
	fresh := newTestChiron(t, env2)
	before, err := fresh.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if err := loadFile(fresh, torn); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("err %v, want ErrCorruptCheckpoint", err)
	}
	// The failed load must leave the agent usable with its prior weights.
	after, err := fresh.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode after failed load: %v", err)
	}
	if after.Rounds != before.Rounds {
		t.Fatalf("failed load changed agent behavior: %d vs %d rounds", after.Rounds, before.Rounds)
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := loadFile(ch, path); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("err %v, want ErrCorruptCheckpoint", err)
	}
}

func TestRestoreRejectsMissingSnapshots(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	ck := mustCheckpoint(t, ch)

	missingInner := *ck
	missingInner.Agents = []rl.AgentState{*ck.Agent("exterior")}
	if err := ch.Restore(&missingInner); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("missing inner: err %v, want ErrCorruptCheckpoint", err)
	}
	missingExterior := *ck
	missingExterior.Agents = []rl.AgentState{*ck.Agent("inner")}
	if err := ch.Restore(&missingExterior); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("missing exterior: err %v, want ErrCorruptCheckpoint", err)
	}
	nilSnapshot := *ck
	nilSnapshot.Agents = []rl.AgentState{{Name: "exterior"}, {Name: "inner"}}
	if err := ch.Restore(&nilSnapshot); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("nil snapshots: err %v, want ErrCorruptCheckpoint", err)
	}
	// Structurally empty JSON ({}): parses fine but has no snapshots.
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := loadFile(ch, path); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("empty object: err %v, want ErrCorruptCheckpoint", err)
	}
	// A shape mismatch stays a distinct failure, not corruption.
	env2 := testEnv(t, 3, 100)
	other := newTestChiron(t, env2)
	if err := other.Restore(ck); err == nil || errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Fatalf("shape mismatch: err %v, want a non-corruption error", err)
	}
}
