package accuracy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"chiron/internal/dataset"
	"chiron/internal/fl"
	"chiron/internal/nn"
)

func testTrainerConfig(nodes int) RealTrainerConfig {
	spec := dataset.SynthMNIST(300)
	return RealTrainerConfig{
		Spec: spec,
		Factory: func(rng *rand.Rand) (*nn.Network, error) {
			return nn.NewClassifierMLP(rng, spec.Dim(), 12, spec.Classes)
		},
		Train:        fl.Config{Epochs: 2, BatchSize: 10, LearningRate: 0.05, Momentum: 0.5},
		NumNodes:     nodes,
		TestFraction: 0.2,
		Seed:         5,
	}
}

func TestRealTrainerValidation(t *testing.T) {
	cfg := testTrainerConfig(3)
	cfg.Factory = nil
	if _, err := NewRealTrainer(cfg); err == nil {
		t.Fatal("accepted nil factory")
	}
	cfg = testTrainerConfig(0)
	if _, err := NewRealTrainer(cfg); err == nil {
		t.Fatal("accepted zero nodes")
	}
	cfg = testTrainerConfig(3)
	cfg.TestFraction = 1
	if _, err := NewRealTrainer(cfg); err == nil {
		t.Fatal("accepted test fraction 1")
	}
}

func TestRealTrainerLearns(t *testing.T) {
	rt, err := NewRealTrainer(testTrainerConfig(3))
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	start := rt.Accuracy()
	if start > 0.35 {
		t.Fatalf("untrained accuracy %v suspiciously high", start)
	}
	all := []int{0, 1, 2}
	var acc float64
	for k := 0; k < 4; k++ {
		acc, err = rt.Advance(all)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	if acc < start+0.3 {
		t.Fatalf("real training failed to learn: %v -> %v", start, acc)
	}
}

func TestRealTrainerEmptyRound(t *testing.T) {
	rt, err := NewRealTrainer(testTrainerConfig(2))
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	before := rt.Accuracy()
	acc, err := rt.Advance(nil)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if acc != before {
		t.Fatalf("empty round changed accuracy %v -> %v", before, acc)
	}
}

func TestRealTrainerRejectsBadParticipant(t *testing.T) {
	rt, err := NewRealTrainer(testTrainerConfig(2))
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	if _, err := rt.Advance([]int{5}); err == nil {
		t.Fatal("accepted out-of-range participant")
	}
	if _, err := rt.Advance([]int{-1}); err == nil {
		t.Fatal("accepted negative participant")
	}
}

// TestRealTrainerNamesCorruptParticipant overflows local SGD with a huge
// learning rate, so every upload is non-finite. Aggregate refuses the
// first in participant order, and the error must name that participant
// (node 2), not its slot in the upload batch.
func TestRealTrainerNamesCorruptParticipant(t *testing.T) {
	cfg := testTrainerConfig(3)
	cfg.Train.LearningRate = 1e300
	rt, err := NewRealTrainer(cfg)
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	_, err = rt.Advance([]int{2, 0})
	var corrupt *fl.CorruptUpdateError
	if !errors.As(err, &corrupt) {
		t.Fatalf("error %v, want *fl.CorruptUpdateError", err)
	}
	if corrupt.Client != 2 || !strings.Contains(err.Error(), "client 2") {
		t.Fatalf("blamed client %d (%v), want participant 2", corrupt.Client, err)
	}
}

func TestRealTrainerResetStartsFreshEpisode(t *testing.T) {
	rt, err := NewRealTrainer(testTrainerConfig(2))
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	all := []int{0, 1}
	for k := 0; k < 3; k++ {
		if _, err := rt.Advance(all); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	trained := rt.Accuracy()
	fresh, err := rt.Reset()
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if fresh >= trained {
		t.Fatalf("reset did not reinitialize: fresh %v >= trained %v", fresh, trained)
	}
}
