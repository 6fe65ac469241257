package edgeenv

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
)

func robustEnv(t *testing.T, jitter, availability float64) *Env {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(5))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(8)), accuracy.PresetMNIST, 5)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	cfg := DefaultConfig(fleet, acc, 500)
	cfg.CommJitter = jitter
	cfg.Availability = availability
	cfg.Rng = rand.New(rand.NewSource(9))
	env, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return env
}

func TestRobustnessConfigValidation(t *testing.T) {
	env := robustEnv(t, 0, 0)
	cfg := env.Config()
	cfg.CommJitter = 1.0
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted jitter 1.0")
	}
	cfg = env.Config()
	cfg.Availability = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted negative availability")
	}
	cfg = env.Config()
	cfg.CommJitter = 0.2
	cfg.Rng = nil
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted jitter without rng")
	}
}

func TestCommJitterVariesRoundTimes(t *testing.T) {
	env := robustEnv(t, 0.3, 0)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	times := make(map[int]map[float64]bool) // node -> distinct times seen
	for i := range env.Nodes() {
		times[i] = make(map[float64]bool)
	}
	for k := 0; k < 6 && !env.Done(); k++ {
		res, err := env.Step(prices)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if res.Done {
			break
		}
		for i, tt := range res.Round.Times {
			if tt > 0 {
				times[i][math.Round(tt*1e6)/1e6] = true
			}
		}
	}
	var varied bool
	for _, set := range times {
		if len(set) > 1 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("comm jitter produced identical round times every round")
	}
}

func TestCommJitterBoundsRoundTime(t *testing.T) {
	env := robustEnv(t, 0.25, 0)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	for k := 0; k < 8 && !env.Done(); k++ {
		res, err := env.Step(prices)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if res.Done {
			break
		}
		for i, node := range env.Nodes() {
			tt := res.Round.Times[i]
			if tt == 0 {
				continue
			}
			lo := node.ComputeTime(node.FreqMax) + node.CommTime*0.75 - 1e-9
			hi := node.ComputeTime(node.FreqMin) + node.CommTime*1.25 + 1e-9
			if tt < lo || tt > hi {
				t.Fatalf("node %d time %v outside jittered bounds [%v,%v]", i, tt, lo, hi)
			}
		}
	}
}

func TestAvailabilityDropsNodes(t *testing.T) {
	env := robustEnv(t, 0, 0.5)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := fullPrices(env)
	var totalParticipants, rounds int
	for k := 0; k < 20 && !env.Done(); k++ {
		res, err := env.Step(prices)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if res.Done {
			break
		}
		totalParticipants += res.Round.Participants
		rounds++
	}
	if rounds == 0 {
		t.Fatal("no rounds played")
	}
	mean := float64(totalParticipants) / float64(rounds)
	// Expect roughly half the fleet per round; allow wide slack.
	if mean < 1 || mean > 4.5 {
		t.Fatalf("mean participants %v with 50%% availability on 5 nodes", mean)
	}
}

func TestFullAvailabilityMatchesBaseline(t *testing.T) {
	// Availability 1.0 must behave exactly like the default (always on).
	env := robustEnv(t, 0, 1.0)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Round.Participants != env.NumNodes() {
		t.Fatalf("participants %d, want all %d", res.Round.Participants, env.NumNodes())
	}
}
