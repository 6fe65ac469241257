// Package scenario makes edge-learning evaluation regimes data instead of
// code: a declarative Spec (JSON or struct literal) describes the device
// fleet as a mix of named hardware classes, the learning task and its
// non-IID severity, time-varying bandwidth regimes, churn and fault
// schedules, and the mechanism × budget grid to sweep — and compiles onto
// the experiment.Plan scheduler, so every regime runs parallel yet
// byte-identical to serial.
//
// On top of the spec language sits a counterfactual replay engine: Record
// runs one (mechanism, budget) cell with the round pipeline's draw-capture
// hooks enabled, streaming every round's resolved environment draws
// (membership, availability, bandwidth jitter) into a versioned
// internal/trace file alongside the mechanism's post-training checkpoint;
// Replay pins those draws through a round.DrawSource and plays a mechanism
// against them — the same mechanism (bit-identical to the recording, the
// property internal/propcheck enforces) or a different mechanism or budget
// ("same fleet, different policy"), answering what-if questions without
// re-simulating the environment. See DESIGN.md §14.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
)

// The typed validation errors malformed specs surface. Callers match them
// with errors.Is; every error still carries the offending field's context.
var (
	// ErrEmptyFleet reports a spec whose device classes sum to zero nodes.
	ErrEmptyFleet = errors.New("scenario: fleet is empty")
	// ErrUnknownClass reports a device class naming no known profile.
	ErrUnknownClass = errors.New("scenario: unknown device class profile")
	// ErrNegativeBudget reports a non-positive episode budget.
	ErrNegativeBudget = errors.New("scenario: non-positive budget")
	// ErrUnknownMechanism reports a mechanism name outside the vocabulary.
	ErrUnknownMechanism = errors.New("scenario: unknown mechanism")
	// ErrUnknownDataset reports a dataset name outside the vocabulary.
	ErrUnknownDataset = errors.New("scenario: unknown dataset")
)

// Spec is one declarative scenario: everything needed to reproduce an
// evaluation regime from a JSON file. The zero value of every optional
// field selects the paper's clean assumption, so the minimal spec — name,
// dataset, seed, one class, one budget, one mechanism, eval episodes — is
// exactly the paper's setting.
type Spec struct {
	// Name identifies the scenario (library key, golden-file key).
	Name string `json:"name"`
	// Description is a human summary shown by `chiron list`.
	Description string `json:"description,omitempty"`
	// Dataset selects the calibrated accuracy curve: mnist, fashion,
	// cifar, or mnist-large (the 100-node Table I fit).
	Dataset string `json:"dataset"`
	// Seed drives fleet generation and all stochasticity. The compiler
	// derives sub-seeds deterministically: seed for the fleet, seed+1 for
	// the accuracy curve, seed+3 for environment draws, seed+5 for the
	// fault sampler, seed+7 for the churn sampler.
	Seed int64 `json:"seed"`
	// Classes composes the fleet from named hardware profiles; nodes are
	// numbered in class order.
	Classes []DeviceClass `json:"classes"`
	// Budgets is the η sweep; each budget is one column of the grid.
	Budgets []float64 `json:"budgets"`
	// Mechanisms lists the mechanisms to sweep: chiron, drl, greedy,
	// uniform, equal-time.
	Mechanisms []string `json:"mechanisms"`
	// TrainEpisodes is the training length per grid cell (0 for the static
	// references).
	TrainEpisodes int `json:"train_episodes"`
	// EvalEpisodes is the deterministic evaluation length per cell.
	EvalEpisodes int `json:"eval_episodes"`
	// Lambda overrides λ (0 = the paper's 2000).
	Lambda float64 `json:"lambda,omitempty"`
	// TimeWeight overrides the exterior reward's time weighting (0 = the
	// calibrated default).
	TimeWeight float64 `json:"time_weight,omitempty"`
	// MaxRounds overrides the episode round cap (0 = default 200).
	MaxRounds int `json:"max_rounds,omitempty"`
	// NonIID is the data heterogeneity severity s ≥ 0: the accuracy
	// curve's round constants stretch by (1+s) and its measurement noise
	// grows by (1+s) — non-IID shards converge slower and noisier. 0 is
	// the IID fit.
	NonIID float64 `json:"non_iid,omitempty"`
	// Availability is the per-round probability a node is reachable
	// (0 or 1 = always, the paper's assumption).
	Availability float64 `json:"availability,omitempty"`
	// CommJitter is the per-round relative bandwidth jitter in [0,1).
	CommJitter float64 `json:"comm_jitter,omitempty"`
	// Bandwidth is a piecewise-constant uplink regime: each phase scales
	// every node's nominal upload time from its round onward. Phases must
	// be in strictly ascending round order.
	Bandwidth []BandwidthPhase `json:"bandwidth,omitempty"`
	// Churn schedules fleet membership over the episode.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Faults injects per-round failures.
	Faults *FaultSpec `json:"faults,omitempty"`
	// RoundDeadline is the server's straggler cutoff in seconds (0 = wait
	// for the slowest node).
	RoundDeadline float64 `json:"round_deadline,omitempty"`
	// MaxRetries and RetryBackoff shape the dropped-upload retry policy.
	MaxRetries   int     `json:"max_retries,omitempty"`
	RetryBackoff float64 `json:"retry_backoff,omitempty"`
	// FailurePayment ∈ [0,1] is the failed-node payment fraction.
	FailurePayment float64 `json:"failure_payment,omitempty"`
	// MinQuorum is the completed-update quorum for model progress.
	MinQuorum int `json:"min_quorum,omitempty"`
}

// DeviceClass is a count of nodes drawn from a named hardware profile,
// optionally rescaled. Profiles multiply the paper's Sec. VI-A fleet
// constants; the per-class scale factors multiply the profile's own
// factors (0 means 1, the profile as is).
type DeviceClass struct {
	// Profile names the base hardware profile: paper, phone, laptop, iot,
	// or server.
	Profile string `json:"profile"`
	// Count is the number of nodes drawn from this class.
	Count int `json:"count"`
	// FreqScale scales the class's maximum CPU frequency range.
	FreqScale float64 `json:"freq_scale,omitempty"`
	// CommScale scales the class's nominal upload-time range.
	CommScale float64 `json:"comm_scale,omitempty"`
	// DataScale scales the class's per-epoch training-data range.
	DataScale float64 `json:"data_scale,omitempty"`
	// ReserveScale scales the class's reserve-utility cap — the knob that
	// makes a class cheap or expensive to recruit (the price regime).
	ReserveScale float64 `json:"reserve_scale,omitempty"`
}

// BandwidthPhase starts a new uplink regime at FromRound: every node's
// nominal upload time is multiplied by Factor until the next phase.
// Factor > 1 is congestion (slower uplinks), < 1 extra headroom.
type BandwidthPhase struct {
	FromRound int     `json:"from_round"`
	Factor    float64 `json:"factor"`
}

// ChurnSpec schedules fleet membership in exactly the forms the faults
// package supports: an exact Script, or the seed-deterministic Markov
// sampler Rates selects. The two are mutually exclusive.
type ChurnSpec struct {
	// Script is the textual event form: "+NODE@ROUND" arrivals and
	// "-NODE@ROUND" departures, comma-separated. A node away for rounds
	// (From, To] is "-NODE@From,+NODE@To+1"; a node that visits for rounds
	// From..To only is "+NODE@From,-NODE@To".
	Script string `json:"script,omitempty"`
	// Rates selects a sampled two-state Markov schedule.
	Rates *ChurnRatesSpec `json:"rates,omitempty"`
}

// ChurnRatesSpec mirrors faults.ChurnRates for JSON specs.
type ChurnRatesSpec struct {
	Depart        float64 `json:"depart"`
	Arrive        float64 `json:"arrive"`
	InitialAbsent float64 `json:"initial_absent,omitempty"`
}

// FaultSpec mirrors faults.Rates for JSON specs: per-(round, node) fault
// probabilities, sampled seed-deterministically.
type FaultSpec struct {
	Crash          float64 `json:"crash,omitempty"`
	Straggle       float64 `json:"straggle,omitempty"`
	Drop           float64 `json:"drop,omitempty"`
	Corrupt        float64 `json:"corrupt,omitempty"`
	StraggleFactor float64 `json:"straggle_factor,omitempty"`
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// a typo'd knob cannot silently select a default.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file, not an
	// extension point.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates the JSON spec at path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// NumNodes returns the fleet size the classes compose.
func (s *Spec) NumNodes() int {
	n := 0
	for _, c := range s.Classes {
		n += c.Count
	}
	return n
}

// EpisodeRounds returns the episode round cap the compiled environment
// will enforce: the spec's MaxRounds override, or the edgeenv default.
func (s *Spec) EpisodeRounds() int {
	if s.MaxRounds > 0 {
		return s.MaxRounds
	}
	return edgeenv.DefaultMaxRounds
}

// Scale returns a copy with train/eval episode counts multiplied by f
// (nonzero counts keep a minimum of 1) — the same reduction rule the
// experiment parameter sets use.
func (s *Spec) Scale(f float64) *Spec {
	scaled := *s
	scaled.TrainEpisodes = experiment.ScaleCount(s.TrainEpisodes, f)
	scaled.EvalEpisodes = experiment.ScaleCount(s.EvalEpisodes, f)
	return &scaled
}

// maxFleetNodes bounds the fleet a spec may declare. Running a spec
// compiles its fleet, so the size a spec from outside declares is also the
// work and memory of each environment it builds; the bound keeps that to a
// fraction of a second and a few hundred MB, and keeps the summed class
// counts from overflowing.
const maxFleetNodes = 1 << 20

// Validate reports the first problem with the spec. All scenario
// construction paths (Parse, Run, Record, Replay) funnel through it. It
// checks the spec's own structure, each class's fleet spec, the churn and
// fault blocks, and the environment settings (through
// edgeenv.Config.ValidateSettings, their one check) against the fleet
// size. It draws nothing and builds no fleet, curve or RNG, so its cost
// does not grow with the node count; a spec it accepts compiles at every
// budget.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if _, err := datasetPreset(s.Dataset); err != nil {
		return err
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("%w (scenario %q)", ErrEmptyFleet, s.Name)
	}
	nodes := 0
	for i, c := range s.Classes {
		if _, ok := profiles[c.Profile]; !ok {
			return fmt.Errorf("%w: class %d names profile %q", ErrUnknownClass, i, c.Profile)
		}
		if c.Count <= 0 {
			return fmt.Errorf("scenario: class %d (%s) count %d, want > 0", i, c.Profile, c.Count)
		}
		if c.Count > maxFleetNodes-nodes {
			return fmt.Errorf("scenario: class %d (%s) count %d takes the fleet past %d nodes",
				i, c.Profile, c.Count, maxFleetNodes)
		}
		nodes += c.Count
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"freq_scale", c.FreqScale}, {"comm_scale", c.CommScale},
			{"data_scale", c.DataScale}, {"reserve_scale", c.ReserveScale},
		} {
			if !(f.v >= 0) || math.IsInf(f.v, 1) {
				return fmt.Errorf("scenario: class %d (%s) %s %v, want finite >= 0", i, c.Profile, f.name, f.v)
			}
		}
	}
	if len(s.Budgets) == 0 {
		return fmt.Errorf("%w: scenario %q has no budgets", ErrNegativeBudget, s.Name)
	}
	for _, b := range s.Budgets {
		if !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("%w: η=%v, want finite > 0", ErrNegativeBudget, b)
		}
	}
	if len(s.Mechanisms) == 0 {
		return fmt.Errorf("%w: scenario %q lists no mechanisms", ErrUnknownMechanism, s.Name)
	}
	for _, m := range s.Mechanisms {
		if _, err := MechanismKind(m); err != nil {
			return err
		}
	}
	switch {
	case s.TrainEpisodes < 0:
		return fmt.Errorf("scenario: train episodes %d, want >= 0", s.TrainEpisodes)
	case s.EvalEpisodes <= 0:
		return fmt.Errorf("scenario: eval episodes %d, want > 0", s.EvalEpisodes)
	case !(s.NonIID >= 0) || math.IsInf(s.NonIID, 1):
		return fmt.Errorf("scenario: non-IID severity %v, want finite >= 0", s.NonIID)
	}
	for i, p := range s.Bandwidth {
		if p.FromRound < 1 {
			return fmt.Errorf("scenario: bandwidth phase %d starts at round %d, want >= 1", i, p.FromRound)
		}
		if i > 0 && p.FromRound <= s.Bandwidth[i-1].FromRound {
			return fmt.Errorf("scenario: bandwidth phases out of order at index %d (round %d after %d)",
				i, p.FromRound, s.Bandwidth[i-1].FromRound)
		}
		if !(p.Factor > 0) || math.IsInf(p.Factor, 1) {
			return fmt.Errorf("scenario: bandwidth phase %d factor %v, want finite > 0", i, p.Factor)
		}
	}
	specs, err := s.fleetSpecs()
	if err != nil {
		return err
	}
	for i, fs := range specs {
		if err := fs.Validate(); err != nil {
			return fmt.Errorf("scenario: fleet: class %d (%s): %w", i, s.Classes[i].Profile, err)
		}
	}
	if _, err := s.churnSchedule(); err != nil {
		return err
	}
	if _, err := s.faultRates(); err != nil {
		return err
	}
	if err := s.envSettings(s.Budgets[0]).ValidateSettings(nodes); err != nil {
		return fmt.Errorf("scenario: env: %w", err)
	}
	return nil
}

// MechanismKind resolves a spec mechanism name to the experiment kind.
func MechanismKind(name string) (experiment.MechanismKind, error) {
	switch strings.ToLower(name) {
	case "chiron":
		return experiment.KindChiron, nil
	case "drl", "drl-based":
		return experiment.KindDRLBased, nil
	case "greedy":
		return experiment.KindGreedy, nil
	case "uniform":
		return experiment.KindUniform, nil
	case "equal-time", "equaltime", "equal-time-oracle", "equaltime-oracle":
		return experiment.KindEqualTimeOracle, nil
	default:
		return 0, fmt.Errorf("%w: %q (want chiron, drl, greedy, uniform, or equal-time)", ErrUnknownMechanism, name)
	}
}
