package propcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"chiron/internal/scenario"
	"chiron/internal/session"
)

// randomSessionSpec draws a small scenario for the serving-layer law:
// static mechanisms mostly (with an occasional trainable greedy cell so
// the gated train-episode path is exercised), availability loss, comm
// jitter, and half the time Markov churn — the regimes where a hosted
// session could plausibly drift from the CLI.
func randomSessionSpec(rng *rand.Rand, trial int) *scenario.Spec {
	classes := make([]scenario.DeviceClass, 1+rng.Intn(2))
	for i := range classes {
		classes[i] = scenario.DeviceClass{
			Profile: profileNames[rng.Intn(len(profileNames))],
			Count:   2 + rng.Intn(2),
		}
	}
	mechs := []string{[]string{"uniform", "equal-time"}[rng.Intn(2)]}
	s := &scenario.Spec{
		Name:         fmt.Sprintf("session-prop-%d", trial),
		Dataset:      []string{"mnist", "fashion"}[rng.Intn(2)],
		Seed:         1 + rng.Int63n(1_000_000),
		Classes:      classes,
		Budgets:      []float64{Uniform(rng, 30, 90)},
		Mechanisms:   mechs,
		EvalEpisodes: 1 + rng.Intn(2),
		MaxRounds:    20 + rng.Intn(21),
		Availability: Uniform(rng, 0.6, 1.0),
		CommJitter:   Uniform(rng, 0, 0.35),
	}
	if rng.Intn(4) == 0 {
		s.Mechanisms = append(s.Mechanisms, "greedy")
		s.TrainEpisodes = 1 + rng.Intn(2)
	}
	if rng.Intn(2) == 0 {
		s.Churn = &scenario.ChurnSpec{Rates: &scenario.ChurnRatesSpec{
			Depart: Uniform(rng, 0, 0.2),
			Arrive: Uniform(rng, 0.2, 0.6),
		}}
	}
	return s
}

// TestPropSessionMatchesCLIDigest is the serving layer's law: for any
// scenario, a server-hosted session — at any worker count, with a pause
// and resume injected at a random episode boundary — produces a run
// digest bit-identical to an ungated scenario.Run of the same spec and
// seed. Wall-clock lifecycle events must never leak into simulation
// results.
func TestPropSessionMatchesCLIDigest(t *testing.T) {
	Trials(t, 907, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		// Both runs regenerate the identical spec from one child seed, so
		// neither can observe mutations made by the other.
		specSeed := rng.Int63()
		genSpec := func() *scenario.Spec {
			return randomSessionSpec(rand.New(rand.NewSource(specSeed)), trial)
		}
		spec := genSpec()
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid spec: %v", trial, err)
		}
		want, err := scenario.Run(spec, 1, scenario.CellHooks{})
		if err != nil {
			t.Fatalf("trial %d: CLI run: %v", trial, err)
		}

		pauseSeq := 1 + rng.Intn(3)
		var s *session.Session
		s, err = session.New(session.Config{
			Spec:    genSpec(),
			Workers: 1 + rng.Intn(3),
			OnEpisode: func(ev session.EpisodeEvent) {
				if ev.Seq == pauseSeq {
					s.Pause()
				}
			},
		})
		if err != nil {
			t.Fatalf("trial %d: session.New: %v", trial, err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("trial %d: Start: %v", trial, err)
		}
		// Resume whenever the injected pause lands (it may never fire if
		// the run has fewer episode events than pauseSeq). A pause injected
		// on the last episode event holds the finished run until the Resume;
		// a Resume refused by a terminal session would still leave the final
		// state and digest to the checks below.
		for {
			if st := s.State(); terminal(st) {
				break
			} else if st == session.StatePaused {
				if err := s.Resume(); err != nil && !terminal(s.State()) {
					t.Fatalf("trial %d: Resume: %v", trial, err)
				}
			}
			runtime.Gosched()
		}
		if got := s.Wait(); got != session.StateDone {
			t.Fatalf("trial %d: final state %s (err %v)", trial, got, s.Err())
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("trial %d: Result: %v", trial, err)
		}
		if res.Digest() != want.Digest() {
			t.Fatalf("trial %d (%s): session digest %s != CLI digest %s",
				trial, spec.Name, res.Digest(), want.Digest())
		}
	})
}

// terminal reports whether st is one of the session's absorbing states.
func terminal(st session.State) bool {
	return st == session.StateDone || st == session.StateStopped || st == session.StateFailed
}
