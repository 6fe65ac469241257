// Package faults injects node failures into the edge-learning round
// pipeline. The paper's round model (T_k = max_i T_{i,k}, Eqn. 8) assumes
// every recruited node finishes; real edge fleets crash mid-round, straggle
// far beyond the clean cost model, drop uploads, and occasionally return
// corrupted parameter vectors. This package expresses those failures as
// per-node, per-round fault schedules that are either scripted (for exact
// reproduction in tests) or sampled from rates with a seed-deterministic
// derivation, so two runs with the same seed see byte-identical fault
// sequences regardless of how many other random draws happen in between.
package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind classifies an injected fault.
type Kind uint8

// The fault taxonomy. At most one fault fires per node per round.
const (
	// None is the zero value: no fault.
	None Kind = iota
	// Crash kills the node mid-round: it goes silent, uploads nothing,
	// and the server only detects the failure by timeout.
	Crash
	// Straggle multiplies the node's round time by Fault.Slowdown,
	// modeling thermal throttling, background load, or a degraded link.
	Straggle
	// Drop loses the node's upload Fault.Attempts times; each failed
	// attempt costs a re-upload plus backoff, and the node is abandoned
	// once the server's retry budget is exhausted.
	Drop
	// Corrupt delivers the upload on time but with a damaged parameter
	// vector, so the server refuses it and settles the node as failed.
	Corrupt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one injected failure for one node in one round.
type Fault struct {
	Kind Kind
	// Slowdown multiplies the node's round time (Straggle only, ≥ 1).
	Slowdown float64
	// Attempts is how many consecutive uploads are lost (Drop only, ≥ 1).
	Attempts int
}

// Schedule answers "which fault, if any, hits node i in round k". Rounds
// and nodes are the environment's indices (rounds 1-based, nodes 0-based).
// Implementations must be deterministic: At(k, i) always returns the same
// answer for the same schedule.
type Schedule interface {
	At(round, node int) (Fault, bool)
}

// Script is an explicit schedule — round → node → fault — for exact
// reproduction in tests and regression traces.
type Script map[int]map[int]Fault

// At implements Schedule.
func (s Script) At(round, node int) (Fault, bool) {
	f, ok := s[round][node]
	if !ok || f.Kind == None {
		return Fault{}, false
	}
	return f, true
}

// Rates parameterizes a sampled fault schedule: each is the per-node,
// per-round probability that the corresponding fault fires. At most one
// fault fires per (round, node); the rates must sum to at most 1.
type Rates struct {
	Crash    float64
	Straggle float64
	Drop     float64
	Corrupt  float64
	// StraggleFactor bounds the sampled slowdown: Straggle faults draw a
	// slowdown uniformly from [1.5, StraggleFactor]. Zero selects the
	// default 4.
	StraggleFactor float64
}

// Validate reports whether the rates are usable.
func (r Rates) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"crash", r.Crash}, {"straggle", r.Straggle},
		{"drop", r.Drop}, {"corrupt", r.Corrupt},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", p.name, p.v)
		}
	}
	if total := r.Crash + r.Straggle + r.Drop + r.Corrupt; total > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", total)
	}
	if f := r.StraggleFactor; f != 0 && !(f >= 1.5 && !math.IsInf(f, 1)) {
		return fmt.Errorf("faults: straggle factor %v, want 0 (default) or finite >= 1.5", f)
	}
	return nil
}

// Any reports whether any fault can fire at these rates.
func (r Rates) Any() bool {
	return r.Crash > 0 || r.Straggle > 0 || r.Drop > 0 || r.Corrupt > 0
}

// Scale returns the rates multiplied by f, letting sweeps express "the
// same fault mix at increasing intensity". When the scaled rates would sum
// past 1 — no longer a valid probability split — they are renormalized to
// sum to exactly 1, preserving the mix's proportions at saturation.
func (r Rates) Scale(f float64) Rates {
	clamp := func(v float64) float64 {
		v *= f
		if v < 0 {
			return 0
		}
		return v
	}
	out := r
	out.Crash = clamp(r.Crash)
	out.Straggle = clamp(r.Straggle)
	out.Drop = clamp(r.Drop)
	out.Corrupt = clamp(r.Corrupt)
	if sum := out.Crash + out.Straggle + out.Drop + out.Corrupt; sum > 1 {
		out.Crash /= sum
		out.Straggle /= sum
		out.Drop /= sum
		out.Corrupt /= sum
	}
	return out
}

// Sampler is a seed-deterministic sampled Schedule. Every (round, node)
// cell derives its own RNG from (seed, round, node), so the answer for a
// cell never depends on query order or on how many cells were queried —
// the property that makes sampled fault runs exactly reproducible.
type Sampler struct {
	rates Rates
	seed  int64
}

// NewSampler validates rates and builds a sampler over them.
func NewSampler(rates Rates, seed int64) (*Sampler, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	return &Sampler{rates: rates, seed: seed}, nil
}

// SplitMix64 is the SplitMix64 finalizer — a cheap, well-mixed hash that
// turns (seed, round, node) into an independent RNG stream per cell. The
// fault and churn samplers and the scenario tape all derive draws from it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Sampler) cellRng(round, node int) *rand.Rand {
	h := SplitMix64(uint64(s.seed))
	h = SplitMix64(h ^ uint64(round)*0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(node)*0xbf58476d1ce4e5b9)
	return rand.New(rand.NewSource(int64(h & math.MaxInt64)))
}

// At implements Schedule: a single uniform draw per cell is compared
// against the cumulative rates, so the marginal probability of each fault
// kind matches its configured rate exactly.
func (s *Sampler) At(round, node int) (Fault, bool) {
	if !s.rates.Any() {
		return Fault{}, false
	}
	rng := s.cellRng(round, node)
	u := rng.Float64()
	switch {
	case u < s.rates.Crash:
		return Fault{Kind: Crash}, true
	case u < s.rates.Crash+s.rates.Straggle:
		factor := s.rates.StraggleFactor
		if factor == 0 {
			factor = 4
		}
		return Fault{Kind: Straggle, Slowdown: 1.5 + rng.Float64()*(factor-1.5)}, true
	case u < s.rates.Crash+s.rates.Straggle+s.rates.Drop:
		// Geometric tail: each extra lost attempt halves in probability,
		// capped so a single fault can't stall a round forever.
		attempts := 1
		for attempts < 6 && rng.Float64() < 0.5 {
			attempts++
		}
		return Fault{Kind: Drop, Attempts: attempts}, true
	case u < s.rates.Crash+s.rates.Straggle+s.rates.Drop+s.rates.Corrupt:
		return Fault{Kind: Corrupt}, true
	default:
		return Fault{}, false
	}
}
