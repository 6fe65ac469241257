// Reproducibility acceptance test for the fault subsystem. It lives in an
// external test package because it serializes rounds through internal/trace,
// which (via mechanism) imports edgeenv.
package edgeenv_test

import (
	"bytes"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/trace"
)

// faultedEpisodeTrace plays one full episode under a sampled fault schedule
// and returns the serialized round trace plus the number of node failures.
func faultedEpisodeTrace(t *testing.T, seed int64) ([]byte, int) {
	t.Helper()
	fleet, err := device.NewFleet(rand.New(rand.NewSource(seed)), device.DefaultFleetSpec(4))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(seed+1)), accuracy.PresetMNIST, 4)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	var deadline float64
	for _, n := range fleet {
		if tt := n.ComputeTime(n.FreqMin) + n.CommTime; tt*1.2 > deadline {
			deadline = tt * 1.2
		}
	}
	// Rates high enough that a short episode is guaranteed to hit faults.
	sampler, err := faults.NewSampler(faults.Rates{
		Crash: 0.1, Straggle: 0.15, Drop: 0.15, Corrupt: 0.1,
	}, seed+2)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	cfg := edgeenv.DefaultConfig(device.FromNodes(fleet), acc, 500)
	cfg.Faults = sampler
	cfg.RoundDeadline = deadline
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 1
	cfg.MaxRounds = 40
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	prices := make([]float64, env.NumNodes())
	for i, n := range env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax)
	}
	for !env.Done() {
		if _, err := env.Step(prices); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	failures := 0
	for i := range env.Ledger().Rounds() {
		r := &env.Ledger().Rounds()[i]
		failures += r.Failures()
		if err := w.WriteRound(1, r); err != nil {
			t.Fatalf("WriteRound: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes(), failures
}

// Two runs with the same seed and fault schedule must produce byte-identical
// trace output — the acceptance criterion for deterministic fault injection.
func TestFaultedEpisodeByteReproducible(t *testing.T) {
	a, failuresA := faultedEpisodeTrace(t, 11)
	b, failuresB := faultedEpisodeTrace(t, 11)
	if failuresA == 0 {
		t.Fatal("episode saw no failures; reproducibility test is vacuous")
	}
	if failuresA != failuresB {
		t.Fatalf("failure counts differ: %d vs %d", failuresA, failuresB)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace bytes")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}

	// A different seed must yield a different schedule (and thus trace).
	c, _ := faultedEpisodeTrace(t, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces")
	}

	// The serialized rounds must survive a read back, outcomes intact.
	trc, err := trace.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(trc.Rounds) == 0 {
		t.Fatal("no rounds read back")
	}
	var sawOutcome bool
	for _, r := range trc.Rounds {
		if len(r.Outcomes) > 0 {
			sawOutcome = true
		}
	}
	if !sawOutcome {
		t.Fatal("no round carried outcomes despite injected failures")
	}
}
