package core

import (
	"math"
	"path/filepath"
	"testing"

	"chiron/internal/rl"
)

// mustCheckpoint takes c's current checkpoint.
func mustCheckpoint(t *testing.T, c *Chiron) *rl.Checkpoint {
	t.Helper()
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return ck
}

// saveFile writes c's checkpoint to path through rl.SaveCheckpoint.
func saveFile(t *testing.T, c *Chiron, path string) {
	t.Helper()
	if err := rl.SaveCheckpoint(path, mustCheckpoint(t, c)); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
}

// loadFile restores c from a checkpoint file through rl.LoadCheckpoint.
func loadFile(c *Chiron, path string) error {
	ck, err := rl.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	return c.Restore(ck)
}

func TestCheckpointRoundTrip(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	if _, err := ch.Train(3, nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want, err := ch.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}

	path := filepath.Join(t.TempDir(), "agent.json")
	saveFile(t, ch, path)

	// A fresh agent behaves differently until restored.
	env2 := testEnv(t, 3, 100)
	fresh := newTestChiron(t, env2)
	if err := loadFile(fresh, path); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if fresh.Episode() != ch.Episode() {
		t.Fatalf("episode counter %d, want %d", fresh.Episode(), ch.Episode())
	}
	got, err := fresh.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if got.Rounds != want.Rounds || math.Abs(got.BudgetSpent-want.BudgetSpent) > 1e-9 {
		t.Fatalf("restored agent differs: %+v vs %+v", got, want)
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	env := testEnv(t, 3, 100)
	ch := newTestChiron(t, env)
	ck := mustCheckpoint(t, ch)

	env2 := testEnv(t, 4, 100) // different fleet size
	other := newTestChiron(t, env2)
	if err := other.Restore(ck); err == nil {
		t.Fatal("restored a checkpoint across incompatible shapes")
	}
	if err := other.Restore(nil); err == nil {
		t.Fatal("restored a nil checkpoint")
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	env := testEnv(t, 2, 100)
	ch := newTestChiron(t, env)
	if err := loadFile(ch, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loaded a missing checkpoint")
	}
}
