package propcheck

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/supervise"
)

// resumable is the full surface a checkpoint-resume digest needs.
type resumable interface {
	mechanism.Mechanism
	mechanism.Trainable
	mechanism.Checkpointer
}

// resumeEnv builds a noise-free environment for resume digests. The accuracy
// curve's measurement-noise RNG is environment state that checkpoints do not
// carry, so exact resume is only promised — and only tested — at NoiseStd=0
// (the preset curves all carry noise).
func resumeEnv(t *testing.T, seed int64) *edgeenv.Env {
	t.Helper()
	const nodes = 3
	rng := rand.New(rand.NewSource(seed))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewSurrogateCurve(rand.New(rand.NewSource(seed+100)), 0.95, 0.85, 25, 0, nodes)
	if err != nil {
		t.Fatalf("NewSurrogateCurve: %v", err)
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, 150)
	cfg.MaxRounds = 30
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("edgeenv.New: %v", err)
	}
	return env
}

// TestResumeDigestsMatchUninterrupted trains each learnable mechanism for 3
// episodes, checkpoints, restores into a freshly constructed identically
// seeded mechanism, trains 3 more, and requires the concatenated action trace
// (exact float64 bit patterns of every committed price) to equal a single
// uninterrupted 6-episode run. This is the resume contract of the unified
// checkpoint: weights, Adam moments, carried rollout buffers, the episode
// counter, and the action-RNG position all survive the round trip.
func TestResumeDigestsMatchUninterrupted(t *testing.T) {
	const (
		seed       = int64(1)
		firstHalf  = 3
		secondHalf = 3
	)
	cases := []struct {
		name string
		make func(t *testing.T) resumable
	}{
		{"chiron", func(t *testing.T) resumable {
			cfg := core.DefaultConfig()
			cfg.Exterior = smallPPO(cfg.Exterior)
			cfg.Inner = smallPPO(cfg.Inner)
			// Larger than one episode's rounds, so the save point lands
			// mid-batch and the checkpoint must carry buffered experience.
			cfg.MinUpdateSamples = 48
			cfg.Seed = seed
			ch, err := core.New(resumeEnv(t, seed), cfg)
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			return ch
		}},
		{"drl-based", func(t *testing.T) resumable {
			cfg := baselines.DefaultDRLBasedConfig()
			cfg.PPO = smallPPO(cfg.PPO)
			cfg.Seed = seed
			d, err := baselines.NewDRLBased(resumeEnv(t, seed), cfg)
			if err != nil {
				t.Fatalf("NewDRLBased: %v", err)
			}
			return d
		}},
		{"greedy", func(t *testing.T) resumable {
			cfg := baselines.DefaultGreedyConfig()
			cfg.Epsilon = 0.5 // explore often so resume exercises the ε stream
			cfg.Seed = seed
			g, err := baselines.NewGreedy(resumeEnv(t, seed), cfg)
			if err != nil {
				t.Fatalf("NewGreedy: %v", err)
			}
			return g
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()

			var uninterrupted strings.Builder
			full := tc.make(t)
			traceMechanism(t, full, firstHalf+secondHalf, &uninterrupted)

			var resumed strings.Builder
			first := tc.make(t)
			traceMechanism(t, first, firstHalf, &resumed)
			ck, err := first.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			path := filepath.Join(t.TempDir(), "resume.json")
			if err := rl.SaveCheckpoint(path, ck); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			if ck, err = rl.LoadCheckpoint(path); err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			second := tc.make(t)
			if err := second.Restore(ck); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if second.Episode() != firstHalf {
				t.Fatalf("restored episode counter %d, want %d", second.Episode(), firstHalf)
			}
			traceMechanism(t, second, secondHalf, &resumed)

			if resumed.String() != uninterrupted.String() {
				t.Fatalf("resumed action trace diverged from the uninterrupted run\n"+
					"(any one-ULP price difference after restore fails this digest)\n%s",
					firstDiff(resumed.String(), uninterrupted.String()))
			}
		})
	}
}

// firstDiff renders the first differing line of two traces for the failure
// message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  resumed:       %s\n  uninterrupted: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(al), len(bl))
}

// TestLearnerSurface pins which experiment kinds are learners. Chiron,
// DRL-based and Greedy must satisfy supervise.Target. The static references
// must satisfy neither mechanism.Trainable nor mechanism.Checkpointer: a
// Train promoted onto them would silently turn on "training" in
// TrainAndEvaluate and every scenario cell. Every kind reports its kind's
// name, which scenario cells and session events are labelled with.
func TestLearnerSurface(t *testing.T) {
	cases := []struct {
		kind    experiment.MechanismKind
		learner bool
	}{
		{experiment.KindChiron, true},
		{experiment.KindDRLBased, true},
		{experiment.KindGreedy, true},
		{experiment.KindUniform, false},
		{experiment.KindEqualTimeOracle, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			m, err := experiment.BuildMechanism(tc.kind, resumeEnv(t, 7), 7)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != tc.kind.String() {
				t.Errorf("Name() = %q, want %q", m.Name(), tc.kind.String())
			}
			_, target := m.(supervise.Target)
			_, trainable := m.(mechanism.Trainable)
			_, checkpointer := m.(mechanism.Checkpointer)
			switch {
			case tc.learner && !target:
				t.Errorf("%s is not a supervise.Target", m.Name())
			case !tc.learner && (trainable || checkpointer):
				t.Errorf("static %s is trainable=%v checkpointer=%v, want neither", m.Name(), trainable, checkpointer)
			}
		})
	}
}
