package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/rl"
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

// FuzzCheckpointLoad feeds arbitrary bytes to the checkpoint parser and
// restores whatever parses. Neither may panic, a structurally incomplete
// checkpoint must be rejected with an error instead of restored, and after
// a successful restore the agent must still produce a valid checkpoint of
// its own.
func FuzzCheckpointLoad(f *testing.F) {
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
	ck, err := ch.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	data, err := json.Marshal(ck)
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
		parsed, err := rl.ParseCheckpoint(data)
		if err != nil {
			return // rejected: the only other promise is "no panic"
		}
		if err := ch.Restore(parsed); err != nil {
			return
		}
		// A restore that claims success must leave a re-checkpointable agent.
		ck, err := ch.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint after restore: %v", err)
		}
		ext, inn := ck.Agent("exterior"), ck.Agent("inner")
		if ext == nil || ext.Snapshot == nil || inn == nil || inn.Snapshot == nil {
			t.Fatalf("successful restore left a hollow agent: %+v", ck)
		}
		if ck.Nodes != env.NumNodes() || ck.StateDim != ch.obs.Dim() {
			t.Fatalf("successful restore changed the pinned shape: %+v", ck)
		}
	})
}
