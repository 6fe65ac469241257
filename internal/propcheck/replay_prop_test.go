package propcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chiron/internal/scenario"
	"chiron/internal/trace"
)

// profileNames lists the scenario engine's built-in device profiles.
var profileNames = []string{"paper", "phone", "laptop", "iot", "server"}

// randomReplaySpec draws a small but fully-loaded scenario: a random
// device-class mix, availability loss, bandwidth jitter, and (half the
// time each) Markov churn and injected faults — the regimes where replay
// determinism is hardest to keep. Budgets stay small so each trial's
// episodes run tens of rounds, not hundreds.
func randomReplaySpec(rng *rand.Rand, trial int) *scenario.Spec {
	classes := make([]scenario.DeviceClass, 1+rng.Intn(2))
	for i := range classes {
		classes[i] = scenario.DeviceClass{
			Profile: profileNames[rng.Intn(len(profileNames))],
			Count:   2 + rng.Intn(2),
		}
	}
	s := &scenario.Spec{
		Name:         fmt.Sprintf("replay-prop-%d", trial),
		Dataset:      []string{"mnist", "fashion"}[rng.Intn(2)],
		Seed:         1 + rng.Int63n(1_000_000),
		Classes:      classes,
		Budgets:      []float64{Uniform(rng, 50, 150)},
		Mechanisms:   []string{[]string{"uniform", "equal-time"}[rng.Intn(2)]},
		EvalEpisodes: 1 + rng.Intn(2),
		Availability: Uniform(rng, 0.6, 1.0),
		CommJitter:   Uniform(rng, 0, 0.35),
	}
	if rng.Intn(2) == 0 {
		s.Churn = &scenario.ChurnSpec{Rates: &scenario.ChurnRatesSpec{
			Depart: Uniform(rng, 0, 0.2),
			Arrive: Uniform(rng, 0.2, 0.6),
		}}
	}
	if rng.Intn(2) == 0 {
		s.Faults = &scenario.FaultSpec{
			Crash:    Uniform(rng, 0, 0.08),
			Straggle: Uniform(rng, 0, 0.10),
			Drop:     Uniform(rng, 0, 0.05),
			Corrupt:  Uniform(rng, 0, 0.03),
		}
		s.FailurePayment = Uniform(rng, 0, 1)
	}
	return s
}

// TestPropReplayBitIdentical is the replay engine's law: for any scenario
// — under churn, faults, availability loss, and comm jitter — recording an
// episode set and replaying the trace with the recorded mechanism and
// budget reproduces every episode summary and every per-round vector
// bit-for-bit, and hence the same ULP-exact digest.
func TestPropReplayBitIdentical(t *testing.T) {
	Trials(t, 801, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		s := randomReplaySpec(rng, trial)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid spec: %v", trial, err)
		}
		var buf bytes.Buffer
		rec, err := scenario.Record(s, "", 0, trace.NewWriter(&buf))
		if err != nil {
			t.Fatalf("trial %d: record: %v", trial, err)
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: read trace: %v", trial, err)
		}
		rep, err := scenario.Replay(tr, scenario.ReplayOptions{})
		if err != nil {
			t.Fatalf("trial %d: Replay: %v", trial, err)
		}
		if rep.Counterfactual {
			t.Fatalf("trial %d: zero-option replay marked counterfactual", trial)
		}
		if !reflect.DeepEqual(rep.Episodes, rec.Episodes) {
			t.Fatalf("trial %d (%s): episodes diverged\n got %+v\nwant %+v",
				trial, s.Name, rep.Episodes, rec.Episodes)
		}
		if !reflect.DeepEqual(rep.Rounds, rec.Rounds) {
			t.Fatalf("trial %d (%s): round records diverged (%d vs %d rounds)",
				trial, s.Name, len(rep.Rounds), len(rec.Rounds))
		}
		if rep.Digest() != rec.Digest() {
			t.Fatalf("trial %d (%s): digest %s != recorded %s",
				trial, s.Name, rep.Digest(), rec.Digest())
		}
	})
}
