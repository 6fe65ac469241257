package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
)

// fuzzEnv mirrors testEnv for fuzz setup, where no *testing.T exists yet.
func fuzzEnv() (*edgeenv.Env, error) {
	fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(7)), device.DefaultFleetSpec(3))
	if err != nil {
		return nil, err
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(8)), accuracy.PresetMNIST, 3)
	if err != nil {
		return nil, err
	}
	return edgeenv.New(edgeenv.DefaultConfig(fleet, acc, 40))
}

// FuzzCheckpointLoad feeds arbitrary bytes to the checkpoint loader. The
// loader must never panic, must reject structurally incomplete state with
// an error instead of restoring it, and after a successful load the agent
// must still be able to produce a valid checkpoint of its own.
func FuzzCheckpointLoad(f *testing.F) {
	dir, err := os.MkdirTemp("", "fuzz-checkpoint")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	env, err := fuzzEnv()
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Exterior.Hidden = []int{8}
	cfg.Inner.Hidden = []int{8}
	ch, err := New(env, cfg)
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a genuine checkpoint, a torn tail, and structural damage.
	valid := filepath.Join(dir, "valid.json")
	if err := ch.SaveCheckpoint(valid); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"exterior":null,"inner":null,"episode":3}`))
	f.Add([]byte("\x00\x01\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ch.LoadCheckpoint(path); err != nil {
			return // rejected: the only other promise is "no panic"
		}
		// A load that claims success must leave a re-checkpointable agent.
		ck := ch.Checkpoint()
		ext, inn := ck.Agent("exterior"), ck.Agent("inner")
		if ext == nil || ext.Snapshot == nil || inn == nil || inn.Snapshot == nil {
			t.Fatalf("successful load left a hollow agent: %+v", ck)
		}
		if ck.Nodes != env.NumNodes() || ck.StateDim != ch.obs.Dim() {
			t.Fatalf("successful load changed the pinned shape: %+v", ck)
		}
	})
}
