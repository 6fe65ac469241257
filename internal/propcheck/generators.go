// Package propcheck is the paper-invariant property harness. It supplies
// two things the unit tests cannot: randomized-but-seeded generators for
// the system's inputs (device fleets, environment configurations, fault
// schedules, price vectors) and reusable checkers for the economic and
// timing laws the reproduction must uphold — the best-response optimality
// of Eqn. (11), individual rationality against the reserve μ_i, the
// simplex allocation and price decomposition of Eqn. (13), exact
// payment/budget accounting under failures, the round-time law
// T_k = max_i T_{i,k}, and the Lemma 1 idle-time/time-efficiency laws.
//
// Property tests in this package and fuzz targets in the home packages
// consume both halves; see DESIGN.md §9 for the invariant catalogue.
package propcheck

import (
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
)

// DefaultTrials is the per-property trial count the harness runs. Each
// trial derives its own RNG from the trial index, so a failure report
// identifies the exact reproducing seed.
const DefaultTrials = 200

// trialSeed derives a deterministic seed for one trial of one property.
// Properties are distinguished by a caller-chosen offset so two properties
// in the same test binary never replay identical input streams.
func trialSeed(offset int64, trial int) int64 {
	return offset*1_000_003 + int64(trial)*97 + 17
}

// Trials runs prop n times with per-trial seeded RNGs and stops at the
// first failing trial, reporting its index (the seed is derivable from
// it). offset namespaces the property's random stream.
func Trials(t *testing.T, offset int64, n int, prop func(t *testing.T, rng *rand.Rand, trial int)) {
	t.Helper()
	for trial := 0; trial < n; trial++ {
		prop(t, rand.New(rand.NewSource(trialSeed(offset, trial))), trial)
		if t.Failed() {
			t.Fatalf("property failed at trial %d (seed offset %d)", trial, offset)
		}
	}
}

// Uniform draws from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}

// RandomNode draws one structurally valid edge node whose parameters span
// well beyond the paper's Sec. VI-A constants: slow and fast CPUs, thin
// and fat data shards, free and expensive uplinks, zero and binding
// reserves. Every draw satisfies device.Node.Validate.
func RandomNode(rng *rand.Rand, id int) *device.Node {
	freqMin := Uniform(rng, 5e7, 4e8)
	n := &device.Node{
		ID:             id,
		CyclesPerBit:   Uniform(rng, 5, 50),
		DataBits:       Uniform(rng, 5e6, 1e8),
		FreqMin:        freqMin,
		FreqMax:        freqMin * Uniform(rng, 1.5, 25),
		Capacitance:    Uniform(rng, 5e-29, 1e-27),
		CommTime:       Uniform(rng, 0, 40),
		CommEnergyRate: Uniform(rng, 0, 0.02),
		Reserve:        Uniform(rng, 0, 0.1),
		Epochs:         1 + rng.Intn(8),
		SampleCount:    100 + rng.Intn(1500),
	}
	return n
}

// RandomFleet draws n random nodes.
func RandomFleet(rng *rand.Rand, n int) []*device.Node {
	fleet := make([]*device.Node, n)
	for i := range fleet {
		fleet[i] = RandomNode(rng, i)
	}
	return fleet
}

// RandomRates draws a valid fault-rate mix; roughly half the draws are
// fault-free so clean behaviour keeps its share of trials.
func RandomRates(rng *rand.Rand) faults.Rates {
	if rng.Intn(2) == 0 {
		return faults.Rates{}
	}
	// Four shares of a total probability mass below 1.
	mass := Uniform(rng, 0.05, 0.6)
	cut := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	a, b, c := cut[0], cut[1], cut[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faults.Rates{
		Crash:    mass * a,
		Straggle: mass * (b - a),
		Drop:     mass * (c - b),
		Corrupt:  mass * (1 - c),
	}
}

// RandomEnv assembles a random but valid environment: a random fleet of
// 2..maxNodes nodes, a surrogate accuracy curve, and randomized budget,
// reward weights, churn, fault schedule, deadline, retry, failure-payment,
// and quorum settings. The explicit EmptyRoundTimeout makes the empty-round
// penalty checkable from the outside.
func RandomEnv(rng *rand.Rand, maxNodes int) (*edgeenv.Env, error) {
	n := 2 + rng.Intn(maxNodes-1)
	fleet := RandomFleet(rng, n)
	presets := []accuracy.Preset{accuracy.PresetMNIST, accuracy.PresetFashion, accuracy.PresetCIFAR}
	acc, err := accuracy.NewPresetCurve(
		rand.New(rand.NewSource(rng.Int63())), presets[rng.Intn(len(presets))], n)
	if err != nil {
		return nil, err
	}
	cfg := edgeenv.DefaultConfig(device.FromNodes(fleet), acc, Uniform(rng, 30, 400))
	cfg.Lambda = Uniform(rng, 100, 4000)
	cfg.TimeWeight = Uniform(rng, 0, 1.5)
	cfg.MaxRounds = 8 + rng.Intn(25)
	cfg.EmptyRoundTimeout = Uniform(rng, 5, 80)
	if rng.Intn(2) == 0 {
		cfg.CommJitter = Uniform(rng, 0, 0.4)
	}
	if rng.Intn(3) == 0 {
		cfg.Availability = Uniform(rng, 0.5, 1)
	}
	if cfg.CommJitter > 0 || (cfg.Availability > 0 && cfg.Availability < 1) {
		cfg.Rng = rand.New(rand.NewSource(rng.Int63()))
	}
	if rates := RandomRates(rng); rates.Any() {
		sampler, err := faults.NewSampler(rates, rng.Int63())
		if err != nil {
			return nil, err
		}
		cfg.Faults = sampler
	}
	if rng.Intn(2) == 0 {
		// Anywhere from "cuts almost everyone" to "never binds".
		cfg.RoundDeadline = Uniform(rng, 10, 400)
	}
	cfg.MaxRetries = rng.Intn(4)
	cfg.RetryBackoff = Uniform(rng, 0, 3)
	cfg.FailurePayment = Uniform(rng, 0, 1)
	cfg.MinQuorum = rng.Intn(n + 1)
	// Churn draws come last so earlier config draws replay identically for
	// a given trial seed whether or not the fleet churns.
	churn, err := RandomChurn(rng, n)
	if err != nil {
		return nil, err
	}
	cfg.Churn = churn
	return edgeenv.New(cfg)
}

// RandomChurn draws a fleet-membership schedule: nil (a fixed fleet) for
// half the draws, otherwise a seed-deterministic Markov sampler whose
// depart rate stays low enough and arrive rate high enough that the fleet
// thins and recovers without staying empty for whole episodes.
func RandomChurn(rng *rand.Rand, n int) (faults.ChurnSchedule, error) {
	if rng.Intn(2) == 0 {
		return nil, nil
	}
	rates := faults.ChurnRates{
		Depart: Uniform(rng, 0, 0.3),
		Arrive: Uniform(rng, 0.2, 0.9),
	}
	if rng.Intn(3) == 0 {
		rates.InitialAbsent = Uniform(rng, 0, 0.5)
	}
	return faults.NewChurnSampler(rates, rng.Int63())
}

// RandomPrices draws a per-node price vector from one of several regimes:
// the environment's own feasible sampler, a uniform split, a sparse vector
// that prices some nodes out entirely, and an unconstrained draw that can
// overshoot the fleet's saturation price or go non-positive. Step must
// uphold its invariants under all of them.
func RandomPrices(rng *rand.Rand, env *edgeenv.Env) []float64 {
	n := env.NumNodes()
	switch rng.Intn(4) {
	case 0:
		return env.RandomPrices(rng)
	case 1:
		per := Uniform(rng, 0, env.MaxTotalPrice()/float64(n))
		prices := make([]float64, n)
		for i := range prices {
			prices[i] = per
		}
		return prices
	case 2:
		prices := env.RandomPrices(rng)
		for i := range prices {
			if rng.Intn(2) == 0 {
				prices[i] = 0
			}
		}
		return prices
	default:
		prices := make([]float64, n)
		for i, node := range env.Nodes() {
			prices[i] = Uniform(rng, -0.5, 2.5) * node.PriceForFreq(node.FreqMax)
		}
		return prices
	}
}
