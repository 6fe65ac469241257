package scenario

import (
	"fmt"
	"math/rand"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/round"
)

// profile is a named hardware archetype: multipliers over the paper's
// Sec. VI-A fleet constants. A class's own scale factors stack on top.
type profile struct {
	freq, comm, data, reserve float64
}

// The built-in device profiles. "paper" is the identity — the Sec. VI-A
// fleet exactly; the others shift the compute/communication/price balance
// the way real device tiers do.
var profiles = map[string]profile{
	"paper":  {freq: 1, comm: 1, data: 1, reserve: 1},
	"phone":  {freq: 0.6, comm: 1.3, data: 0.8, reserve: 1},
	"laptop": {freq: 1.5, comm: 0.8, data: 1.2, reserve: 1},
	"iot":    {freq: 0.25, comm: 2.0, data: 0.5, reserve: 0.5},
	"server": {freq: 3.0, comm: 0.4, data: 1.5, reserve: 2},
}

// datasetPreset resolves a spec dataset name to the calibrated accuracy
// preset through accuracy.ParsePreset, the vocabulary the chiron CLI shares.
func datasetPreset(name string) (accuracy.Preset, error) {
	p, err := accuracy.ParsePreset(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %q (want mnist, fashion, cifar, or mnist-large)", ErrUnknownDataset, name)
	}
	return p, nil
}

// scale returns v, or 1 when the spec left the factor at its zero value.
func scale(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// fleetSpecs returns each class's fleet spec: the paper's DefaultFleetSpec
// with the profile (and per-class) multipliers applied. It draws nothing.
func (s *Spec) fleetSpecs() ([]device.FleetSpec, error) {
	specs := make([]device.FleetSpec, len(s.Classes))
	for i, c := range s.Classes {
		p, ok := profiles[c.Profile]
		if !ok {
			return nil, fmt.Errorf("%w: class %d names profile %q", ErrUnknownClass, i, c.Profile)
		}
		fs := device.DefaultFleetSpec(c.Count)
		freq := p.freq * scale(c.FreqScale)
		comm := p.comm * scale(c.CommScale)
		data := p.data * scale(c.DataScale)
		reserve := p.reserve * scale(c.ReserveScale)
		fs.FreqMin *= freq
		fs.FreqMaxLow *= freq
		fs.FreqMaxHigh *= freq
		fs.CommTimeMin *= comm
		fs.CommTimeMax *= comm
		fs.DataBitsMin *= data
		fs.DataBitsMax *= data
		fs.ReserveMax *= reserve
		specs[i] = fs
	}
	return specs, nil
}

// buildFleet draws the composed fleet: the nodes of each class's fleet spec,
// drawn from the shared rng in class order straight into one fleet's
// columns, so the fleet is a pure function of (classes, seed).
func (s *Spec) buildFleet(rng *rand.Rand) (*device.Fleet, error) {
	specs, err := s.fleetSpecs()
	if err != nil {
		return nil, err
	}
	fleet, err := device.NewFleetBatch(rng, specs...)
	if err != nil {
		return nil, fmt.Errorf("scenario: fleet: %w", err)
	}
	return fleet, nil
}

// buildAccuracy constructs the dataset's calibrated curve bound to rng,
// with the non-IID stretch applied: severity s slows both exponential round
// constants by (1+s) and amplifies the measurement noise by (1+s) —
// heterogeneous shards converge slower and noisier, so participation (and
// therefore incentive spend) buys less per round.
func (s *Spec) buildAccuracy(rng *rand.Rand) (*accuracy.SurrogateCurve, error) {
	preset, err := datasetPreset(s.Dataset)
	if err != nil {
		return nil, err
	}
	curve, err := accuracy.NewPresetCurve(rng, preset, s.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("scenario: accuracy: %w", err)
	}
	if s.NonIID > 0 {
		stretch := 1 + s.NonIID
		curve.Tau *= stretch
		if curve.Tau2 > 0 {
			curve.Tau2 *= stretch
		}
		curve.NoiseStd *= stretch
		if _, err := curve.Reset(); err != nil {
			return nil, fmt.Errorf("scenario: accuracy: %w", err)
		}
	}
	return curve, nil
}

// churnSchedule compiles the spec's churn block into a faults schedule:
// the parsed script, or the Markov sampler seeded at seed+7. Returns
// (nil, nil) when the spec declares no churn.
func (s *Spec) churnSchedule() (faults.ChurnSchedule, error) {
	c := s.Churn
	switch {
	case c == nil:
		return nil, nil
	case c.Script != "" && c.Rates != nil:
		return nil, fmt.Errorf("scenario: churn declares both an exact script and sampled rates")
	case c.Rates != nil:
		rates := faults.ChurnRates{
			Depart:        c.Rates.Depart,
			Arrive:        c.Rates.Arrive,
			InitialAbsent: c.Rates.InitialAbsent,
		}
		sampler, err := faults.NewChurnSampler(rates, s.Seed+7)
		if err != nil {
			return nil, fmt.Errorf("scenario: churn: %w", err)
		}
		return sampler, nil
	case c.Script == "":
		return nil, nil
	}
	script, err := faults.ParseChurnScript(c.Script)
	if err != nil {
		return nil, fmt.Errorf("scenario: churn: %w", err)
	}
	if err := script.Validate(s.NumNodes()); err != nil {
		return nil, fmt.Errorf("scenario: churn: %w", err)
	}
	return script, nil
}

// faultRates compiles the spec's fault block into validated sampler rates.
func (s *Spec) faultRates() (faults.Rates, error) {
	f := s.Faults
	if f == nil {
		return faults.Rates{}, nil
	}
	rates := faults.Rates{
		Crash:          f.Crash,
		Straggle:       f.Straggle,
		Drop:           f.Drop,
		Corrupt:        f.Corrupt,
		StraggleFactor: f.StraggleFactor,
	}
	if err := rates.Validate(); err != nil {
		return faults.Rates{}, fmt.Errorf("scenario: faults: %w", err)
	}
	return rates, nil
}

// bandwidthSchedule compiles the piecewise-constant uplink regime; nil when
// the spec declares none.
func (s *Spec) bandwidthSchedule() round.BandwidthSchedule {
	if len(s.Bandwidth) == 0 {
		return nil
	}
	return phaseSchedule(s.Bandwidth)
}

// phaseSchedule implements round.BandwidthSchedule over validated phases
// (strictly ascending FromRound, positive factors). The factor before the
// first phase is 1, the nominal bandwidth.
type phaseSchedule []BandwidthPhase

// Factor implements round.BandwidthSchedule.
func (p phaseSchedule) Factor(roundIndex int) float64 {
	f := 1.0
	for _, phase := range p {
		if phase.FromRound > roundIndex {
			break
		}
		f = phase.Factor
	}
	return f
}

// envSettings returns the environment settings the spec selects at one
// budget: the edgeenv defaults with the spec's overrides, and no fleet,
// accuracy model, RNG or schedule. A nonzero setting is forwarded even when
// out of range, so edgeenv.Config.ValidateSettings rejects it instead of
// the default replacing it.
func (s *Spec) envSettings(budget float64) edgeenv.Config {
	cfg := edgeenv.DefaultConfig(nil, nil, budget)
	if s.Lambda != 0 {
		cfg.Lambda = s.Lambda
	}
	if s.TimeWeight != 0 {
		cfg.TimeWeight = s.TimeWeight
	}
	if s.MaxRounds != 0 {
		cfg.MaxRounds = s.MaxRounds
	}
	cfg.Availability = s.Availability
	cfg.CommJitter = s.CommJitter
	cfg.RoundDeadline = s.RoundDeadline
	cfg.MaxRetries = s.MaxRetries
	cfg.RetryBackoff = s.RetryBackoff
	cfg.FailurePayment = s.FailurePayment
	cfg.MinQuorum = s.MinQuorum
	return cfg
}

// envHooks carries the replay-engine attachments BuildEnv threads into the
// environment: exactly one of draws (replay) or recorder (record) is set,
// or neither (a plain run).
type envHooks struct {
	draws    round.DrawSource
	recorder round.DrawRecorder
}

// BuildEnv compiles the spec into an edge-learning environment at one
// budget. It also returns the accuracy curve's retained RNG: Record and
// Replay reseed it before each evaluation episode (see evalSeed) so the
// accuracy measurement noise of episode e is reproducible regardless of how
// much randomness training consumed first.
//
// Seed discipline: seed drives the fleet draw, seed+1 the accuracy noise,
// seed+3 the environment's availability/jitter draws, seed+5 the fault
// sampler, and seed+7 the churn sampler — all deterministic functions of
// the spec seed, so two compilations of the same spec are identical.
func (s *Spec) BuildEnv(budget float64, hooks envHooks) (*edgeenv.Env, *rand.Rand, error) {
	if budget <= 0 {
		return nil, nil, fmt.Errorf("%w: η=%v", ErrNegativeBudget, budget)
	}
	fleet, err := s.buildFleet(rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, nil, err
	}
	accRng := rand.New(rand.NewSource(s.Seed + 1))
	curve, err := s.buildAccuracy(accRng)
	if err != nil {
		return nil, nil, err
	}
	cfg := s.envSettings(budget)
	cfg.Fleet = fleet
	cfg.Accuracy = curve
	if hooks.draws != nil {
		// A replay source supplies every draw verbatim: the RNG, churn
		// schedule, and bandwidth regime must not be consulted at all.
		cfg.Draws = hooks.draws
	} else {
		cfg.Rng = rand.New(rand.NewSource(s.Seed + 3))
		cfg.Bandwidth = s.bandwidthSchedule()
		cfg.Churn, err = s.churnSchedule()
		if err != nil {
			return nil, nil, err
		}
		cfg.DrawRecorder = hooks.recorder
	}
	rates, err := s.faultRates()
	if err != nil {
		return nil, nil, err
	}
	if rates.Any() {
		sampler, err := faults.NewSampler(rates, s.Seed+5)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: faults: %w", err)
		}
		cfg.Faults = sampler
	}
	env, err := edgeenv.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: env: %w", err)
	}
	return env, accRng, nil
}
