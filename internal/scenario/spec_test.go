package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"chiron/internal/experiment"
)

// validSpec returns a minimal well-formed spec the invalid cases mutate.
func validSpec() *Spec {
	return &Spec{
		Name:         "test",
		Dataset:      "mnist",
		Seed:         1,
		Classes:      []DeviceClass{{Profile: "paper", Count: 3}},
		Budgets:      []float64{100},
		Mechanisms:   []string{"uniform"},
		EvalEpisodes: 1,
	}
}

func TestValidateAcceptsLibrary(t *testing.T) {
	for _, name := range Names() {
		s, _ := Lookup(name)
		if err := s.Validate(); err != nil {
			t.Errorf("library scenario %s invalid: %v", name, err)
		}
	}
}

// TestValidateTable drives every malformed-spec class through Validate and
// checks both that it is rejected and that the typed sentinel (when one
// applies) survives wrapping, so callers can errors.Is-match failures.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   error // nil = any error
	}{
		{"no name", func(s *Spec) { s.Name = "" }, nil},
		{"unknown dataset", func(s *Spec) { s.Dataset = "imagenet" }, ErrUnknownDataset},
		{"no classes", func(s *Spec) { s.Classes = nil }, ErrEmptyFleet},
		{"zero-count classes", func(s *Spec) { s.Classes[0].Count = 0 }, nil},
		{"class counts overflow int", func(s *Spec) {
			s.Classes = []DeviceClass{{Profile: "paper", Count: 5e18}, {Profile: "paper", Count: 5e18}}
		}, nil},
		{"class count past the fleet bound", func(s *Spec) { s.Classes[0].Count = 1e14 }, nil},
		{"class counts sum past the fleet bound", func(s *Spec) {
			s.Classes = []DeviceClass{{Profile: "paper", Count: maxFleetNodes}, {Profile: "paper", Count: 1}}
		}, nil},
		{"unknown profile", func(s *Spec) { s.Classes[0].Profile = "mainframe" }, ErrUnknownClass},
		{"negative class scale", func(s *Spec) { s.Classes[0].FreqScale = -1 }, nil},
		{"no budgets", func(s *Spec) { s.Budgets = nil }, ErrNegativeBudget},
		{"negative budget", func(s *Spec) { s.Budgets = []float64{100, -5} }, ErrNegativeBudget},
		{"zero budget", func(s *Spec) { s.Budgets = []float64{0} }, ErrNegativeBudget},
		{"no mechanisms", func(s *Spec) { s.Mechanisms = nil }, ErrUnknownMechanism},
		{"unknown mechanism", func(s *Spec) { s.Mechanisms = []string{"oracle-lp"} }, ErrUnknownMechanism},
		{"negative train episodes", func(s *Spec) { s.TrainEpisodes = -1 }, nil},
		{"zero eval episodes", func(s *Spec) { s.EvalEpisodes = 0 }, nil},
		{"negative lambda", func(s *Spec) { s.Lambda = -1 }, nil},
		{"negative time weight", func(s *Spec) { s.TimeWeight = -1 }, nil},
		{"negative max rounds", func(s *Spec) { s.MaxRounds = -1 }, nil},
		{"negative round deadline", func(s *Spec) { s.RoundDeadline = -1 }, nil},
		{"negative max retries", func(s *Spec) { s.MaxRetries = -1 }, nil},
		{"negative retry backoff", func(s *Spec) { s.RetryBackoff = -1 }, nil},
		{"negative quorum", func(s *Spec) { s.MinQuorum = -1 }, nil},
		{"class scale underflows the frequency range", func(s *Spec) {
			s.Classes[0] = DeviceClass{Profile: "iot", Count: 3, FreqScale: 5e-324}
		}, nil},
		{"class scale overflows the comm range", func(s *Spec) {
			// Every factor is finite; their product is +Inf.
			s.Classes[0] = DeviceClass{Profile: "server", Count: 3, CommScale: 1e308}
		}, nil},
		{"negative non-iid", func(s *Spec) { s.NonIID = -0.5 }, nil},
		{"availability above one", func(s *Spec) { s.Availability = 1.5 }, nil},
		{"jitter at one", func(s *Spec) { s.CommJitter = 1 }, nil},
		{"quorum beyond fleet", func(s *Spec) { s.MinQuorum = 4 }, nil},
		{"failure payment above one", func(s *Spec) { s.FailurePayment = 2 }, nil},
		{"bandwidth round zero", func(s *Spec) {
			s.Bandwidth = []BandwidthPhase{{FromRound: 0, Factor: 2}}
		}, nil},
		{"bandwidth out of order", func(s *Spec) {
			s.Bandwidth = []BandwidthPhase{{FromRound: 5, Factor: 2}, {FromRound: 5, Factor: 1}}
		}, nil},
		{"bandwidth zero factor", func(s *Spec) {
			s.Bandwidth = []BandwidthPhase{{FromRound: 1, Factor: 0}}
		}, nil},
		{"churn script and rates", func(s *Spec) {
			s.Churn = &ChurnSpec{Script: "-0@2", Rates: &ChurnRatesSpec{Depart: 0.1}}
		}, nil},
		{"churn bad script", func(s *Spec) { s.Churn = &ChurnSpec{Script: "0@2"} }, nil},
		{"churn script unknown node", func(s *Spec) { s.Churn = &ChurnSpec{Script: "-9@2"} }, nil},
		{"churn rates out of range", func(s *Spec) {
			s.Churn = &ChurnSpec{Rates: &ChurnRatesSpec{Depart: 1.5}}
		}, nil},
		{"churn window unknown node", func(s *Spec) {
			// A visit by node 7 of a 3-node fleet.
			s.Churn = &ChurnSpec{Script: "+7@2,-7@4"}
		}, nil},
		// The exact-schedule conflicts below reach the faults script
		// errors; TestValidateChurnScriptErrors pins which one each row
		// reaches.
		{"overlapping churn windows", func(s *Spec) {
			s.Churn = &ChurnSpec{Script: overlappingVisits}
		}, nil},
		{"adjacent churn windows collide", func(s *Spec) {
			s.Churn = &ChurnSpec{Script: adjacentAways}
		}, nil},
		{"mixed visit and away windows", func(s *Spec) {
			s.Churn = &ChurnSpec{Script: visitThenAway}
		}, nil},
		{"window collides with script", func(s *Spec) {
			s.Churn = &ChurnSpec{Script: doubleDepart}
		}, nil},
		{"fault rates above one", func(s *Spec) {
			s.Faults = &FaultSpec{Crash: 0.8, Straggle: 0.8}
		}, nil},
		{"bad straggle factor", func(s *Spec) {
			s.Faults = &FaultSpec{Straggle: 0.1, StraggleFactor: 1.1}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// Exact churn schedules that contradict themselves for node 0.
const (
	// Visits for rounds 2..6 and 5..9: node 0 arrives at round 5 while
	// already present.
	overlappingVisits = "+0@2,-0@6,+0@5,-0@9"
	// Away for rounds (2,6] and (7,9]: the re-arrival and the second
	// departure share round 7.
	adjacentAways = "-0@2,+0@7,-0@7,+0@10"
	// A visit for rounds 2..4, then away for (8,9]: node 0 departs at
	// round 8 while already absent.
	visitThenAway = "+0@2,-0@4,-0@8,+0@10"
	// Two departures at round 3.
	doubleDepart = "-0@3,-0@3,+0@6"
)

// TestValidateChurnScriptErrors checks that each self-contradicting churn
// script is refused with the faults error that names its conflict.
func TestValidateChurnScriptErrors(t *testing.T) {
	for script, want := range map[string]string{
		overlappingVisits: "node 0 arrives at round 5 while already present",
		adjacentAways:     "node 0 has two churn events at round 7",
		visitThenAway:     "node 0 departs at round 8 while already absent",
		doubleDepart:      "node 0 has two churn events at round 3",
	} {
		s := validSpec()
		s.Churn = &ChurnSpec{Script: script}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("script %q: error %v, want %q", script, err, want)
		}
	}
}

// TestValidateRejectsNonFinite sets every float setting of a spec to NaN,
// +Inf and -Inf in turn: Validate must refuse each one rather than let a
// NaN pass as the default (λ) or as a no-op (non-IID severity), or fail
// only later inside a grid job. Only Go callers can build these, since
// JSON carries no NaN or Inf.
func TestValidateRejectsNonFinite(t *testing.T) {
	settings := map[string]func(*Spec, float64){
		"budget":        func(s *Spec, v float64) { s.Budgets = []float64{100, v} },
		"freq_scale":    func(s *Spec, v float64) { s.Classes[0].FreqScale = v },
		"comm_scale":    func(s *Spec, v float64) { s.Classes[0].CommScale = v },
		"data_scale":    func(s *Spec, v float64) { s.Classes[0].DataScale = v },
		"reserve_scale": func(s *Spec, v float64) { s.Classes[0].ReserveScale = v },
		"lambda":        func(s *Spec, v float64) { s.Lambda = v },
		"time_weight":   func(s *Spec, v float64) { s.TimeWeight = v },
		"non_iid":       func(s *Spec, v float64) { s.NonIID = v },
		"availability":  func(s *Spec, v float64) { s.Availability = v },
		"comm_jitter":   func(s *Spec, v float64) { s.CommJitter = v },
		"bandwidth factor": func(s *Spec, v float64) {
			s.Bandwidth = []BandwidthPhase{{FromRound: 1, Factor: v}}
		},
		"round_deadline":  func(s *Spec, v float64) { s.RoundDeadline = v },
		"retry_backoff":   func(s *Spec, v float64) { s.RetryBackoff = v },
		"failure_payment": func(s *Spec, v float64) { s.FailurePayment = v },
		"churn depart": func(s *Spec, v float64) {
			s.Churn = &ChurnSpec{Rates: &ChurnRatesSpec{Depart: v, Arrive: 0.5}}
		},
		"churn arrive": func(s *Spec, v float64) {
			s.Churn = &ChurnSpec{Rates: &ChurnRatesSpec{Depart: 0.1, Arrive: v}}
		},
		"churn initial absent": func(s *Spec, v float64) {
			s.Churn = &ChurnSpec{Rates: &ChurnRatesSpec{Depart: 0.1, Arrive: 0.5, InitialAbsent: v}}
		},
		"fault crash":    func(s *Spec, v float64) { s.Faults = &FaultSpec{Crash: v} },
		"fault straggle": func(s *Spec, v float64) { s.Faults = &FaultSpec{Straggle: v} },
		"fault drop":     func(s *Spec, v float64) { s.Faults = &FaultSpec{Drop: v} },
		"fault corrupt":  func(s *Spec, v float64) { s.Faults = &FaultSpec{Corrupt: v} },
		"straggle factor": func(s *Spec, v float64) {
			s.Faults = &FaultSpec{Straggle: 0.1, StraggleFactor: v}
		},
	}
	for name, set := range settings {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := validSpec()
			set(s, v)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %v", name, v)
			}
		}
	}
}

// TestValidateDrawsNothing: Validate checks the settings against the node
// count without compiling the fleet, so a spec at the fleet bound, with
// churn, faults and a quorum of every node, validates in well under 1 MB
// (drawing its fleet takes about 100 MB).
func TestValidateDrawsNothing(t *testing.T) {
	s := validSpec()
	s.Classes = []DeviceClass{{Profile: "paper", Count: maxFleetNodes - 1}, {Profile: "iot", Count: 1}}
	s.Churn = &ChurnSpec{Script: fmt.Sprintf("-7@2,+7@5,-%d@3,+%d@5", maxFleetNodes-1, maxFleetNodes-1)}
	s.Faults = &FaultSpec{Crash: 0.01, Straggle: 0.02}
	s.MinQuorum = maxFleetNodes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("validating a %d-node spec allocated %d bytes, want < 1 MB", s.NumNodes(), got)
	}
	s.MinQuorum = maxFleetNodes + 1
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted a quorum above the fleet size")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","dataset":"mnist","clases":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("typo'd field error = %v", err)
	}
	// Churn windows are spelled as script events; a spec still carrying
	// the window form is refused, not run without its churn.
	_, err = Parse([]byte(`{"name":"x","dataset":"mnist","seed":1,
		"classes":[{"profile":"paper","count":3}],"budgets":[100],"mechanisms":["uniform"],
		"eval_episodes":1,"churn":{"windows":[{"node":0,"from":2,"to":4}]}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "windows"`) {
		t.Errorf("churn windows error = %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	data, _ := json.Marshal(validSpec())
	if _, err := Parse(append(data, []byte("{}")...)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	s, _ := Lookup("faulty-fleet")
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if back.Name != s.Name || back.Faults == nil || back.Faults.Straggle != s.Faults.Straggle {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestMechanismKindVocabulary(t *testing.T) {
	cases := map[string]experiment.MechanismKind{
		"chiron":           experiment.KindChiron,
		"Chiron":           experiment.KindChiron,
		"drl":              experiment.KindDRLBased,
		"DRL-based":        experiment.KindDRLBased,
		"greedy":           experiment.KindGreedy,
		"uniform":          experiment.KindUniform,
		"equal-time":       experiment.KindEqualTimeOracle,
		"EqualTime-Oracle": experiment.KindEqualTimeOracle,
	}
	for name, want := range cases {
		got, err := MechanismKind(name)
		if err != nil || got != want {
			t.Errorf("MechanismKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Every mechanism String() form must round-trip, so replay can always
	// resolve a recorded header.
	for _, k := range []experiment.MechanismKind{
		experiment.KindChiron, experiment.KindDRLBased, experiment.KindGreedy,
		experiment.KindUniform, experiment.KindEqualTimeOracle,
	} {
		got, err := MechanismKind(k.String())
		if err != nil || got != k {
			t.Errorf("MechanismKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
}

func TestScale(t *testing.T) {
	s, _ := Lookup("fig4-grid")
	scaled := s.Scale(0.01)
	if scaled.TrainEpisodes != 5 || scaled.EvalEpisodes != 1 {
		t.Errorf("Scale(0.01) train=%d eval=%d, want 5, 1", scaled.TrainEpisodes, scaled.EvalEpisodes)
	}
	if s.TrainEpisodes != 500 {
		t.Errorf("Scale mutated the original: train=%d", s.TrainEpisodes)
	}
}

func TestBandwidthPhaseSchedule(t *testing.T) {
	sched := phaseSchedule([]BandwidthPhase{{FromRound: 5, Factor: 2}, {FromRound: 12, Factor: 0.7}})
	for _, tc := range []struct {
		round int
		want  float64
	}{{1, 1}, {4, 1}, {5, 2}, {11, 2}, {12, 0.7}, {100, 0.7}} {
		if got := sched.Factor(tc.round); got != tc.want {
			t.Errorf("Factor(%d) = %v, want %v", tc.round, got, tc.want)
		}
	}
}

// FuzzScenarioParse feeds arbitrary bytes (seeded with every library
// scenario and a few malformed shapes) through Parse: it must never panic,
// anything it accepts must survive a marshal → parse round trip, and its
// environment must compile at every budget, since Validate itself compiles
// none. The compile check skips specs whose fleets times budgets exceed
// maxFuzzCompileNodes, which keeps each input cheap; Validate runs the same
// checks at every size.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range Names() {
		s, _ := Lookup(name)
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatalf("marshal %s: %v", name, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","dataset":"mnist","classes":[{"profile":"paper","count":-1}]}`))
	f.Add([]byte(`{"name":"x","budgets":[1e308,1e308]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-parse: %v\n%s", err, out)
		}
		if back.Name != s.Name || back.NumNodes() != s.NumNodes() {
			t.Fatalf("round trip drifted: %q/%d vs %q/%d", back.Name, back.NumNodes(), s.Name, s.NumNodes())
		}
		if s.NumNodes()*len(s.Budgets) > maxFuzzCompileNodes {
			return
		}
		for _, b := range s.Budgets {
			if _, _, err := s.BuildEnv(b, envHooks{}); err != nil {
				t.Fatalf("accepted spec does not compile at η=%v: %v\n%s", b, err, data)
			}
		}
	})
}

// maxFuzzCompileNodes bounds the nodes FuzzScenarioParse compiles per input.
const maxFuzzCompileNodes = 1 << 14
