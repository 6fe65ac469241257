// Package accuracy supplies the A(ω_k) signal the exterior agent's reward
// consumes. Two interchangeable implementations exist:
//
//   - SurrogateCurve: an analytic saturating-exponential accuracy model
//     calibrated against the paper's own reported numbers, used in the
//     500-episode DRL sweeps where real neural training would dominate
//     wall-clock without changing the mechanism under study.
//   - RealTrainer: an adapter over internal/fl that actually trains a Go
//     neural network with FedAvg each round and measures test accuracy,
//     used in examples and integration tests to exercise the full
//     pipeline the way the paper's PyTorch simulator did.
//
// Both implement Model and are reset between episodes.
package accuracy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"chiron/internal/dataset"
)

// Model produces the global-model accuracy trajectory of one edge-learning
// episode. Implementations must be deterministic given their RNG.
type Model interface {
	// Reset reinitializes the learning task for a new episode and returns
	// the accuracy of the untrained global model.
	Reset() (float64, error)
	// Advance runs one federated training round and returns the new global
	// model accuracy A(ω_k). participants lists the node IDs that trained
	// this round; a round with no participants leaves accuracy unchanged.
	Advance(participants []int) (float64, error)
	// Accuracy returns the current A(ω) without advancing.
	Accuracy() float64
}

// SurrogateCurve models A(k) = AInf − B·exp(−k_eff/Tau) − B2·exp(−k_eff/Tau2)
// plus noise: the saturating learning curve of FedAvg image classification,
// optionally with a second exponential term so a fast early climb and a
// slow late tail can be fit simultaneously (the shape of the paper's
// Table I). k_eff counts rounds weighted by the participating fraction of
// nodes, so rounds with partial participation move the model
// proportionally less — the property that makes node participation worth
// paying for.
type SurrogateCurve struct {
	// AInf is the asymptotic accuracy of the task.
	AInf float64
	// B is the initial accuracy deficit of the primary term.
	B float64
	// Tau is the round constant of the primary term.
	Tau float64
	// B2 and Tau2 define the optional second exponential term (B2=0
	// disables it). A(0) = AInf − B − B2.
	B2   float64
	Tau2 float64
	// NoiseStd adds zero-mean Gaussian measurement noise per round.
	NoiseStd float64
	// TotalNodes is the fleet size used to weight partial participation.
	TotalNodes int

	rng  *rand.Rand
	kEff float64
	acc  float64
}

var _ Model = (*SurrogateCurve)(nil)

// NewSurrogateCurve validates the parameters and binds the RNG.
func NewSurrogateCurve(rng *rand.Rand, aInf, b, tau, noiseStd float64, totalNodes int) (*SurrogateCurve, error) {
	switch {
	case aInf <= 0 || aInf > 1:
		return nil, fmt.Errorf("accuracy: AInf %v outside (0,1]", aInf)
	case b <= 0 || b >= aInf:
		return nil, fmt.Errorf("accuracy: B %v outside (0,AInf)", b)
	case tau <= 0:
		return nil, fmt.Errorf("accuracy: Tau %v, want > 0", tau)
	case noiseStd < 0:
		return nil, fmt.Errorf("accuracy: noise std %v, want >= 0", noiseStd)
	case totalNodes <= 0:
		return nil, fmt.Errorf("accuracy: total nodes %d, want > 0", totalNodes)
	}
	s := &SurrogateCurve{AInf: aInf, B: b, Tau: tau, NoiseStd: noiseStd, TotalNodes: totalNodes, rng: rng}
	if _, err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewTwoTermCurve builds a surrogate with both exponential terms. The
// second term must keep A(0) = AInf − B − B2 nonnegative.
func NewTwoTermCurve(rng *rand.Rand, aInf, b, tau, b2, tau2, noiseStd float64, totalNodes int) (*SurrogateCurve, error) {
	s, err := NewSurrogateCurve(rng, aInf, b, tau, noiseStd, totalNodes)
	if err != nil {
		return nil, err
	}
	if b2 < 0 || tau2 <= 0 {
		return nil, fmt.Errorf("accuracy: second term B2=%v Tau2=%v", b2, tau2)
	}
	if aInf-b-b2 < 0 {
		return nil, fmt.Errorf("accuracy: A(0) = %v negative with both terms", aInf-b-b2)
	}
	s.B2, s.Tau2 = b2, tau2
	if _, err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset implements Model.
func (s *SurrogateCurve) Reset() (float64, error) {
	s.kEff = 0
	s.acc = s.value()
	return s.acc, nil
}

// Advance implements Model.
func (s *SurrogateCurve) Advance(participants []int) (float64, error) {
	if len(participants) > s.TotalNodes {
		return 0, fmt.Errorf("accuracy: %d participants for %d nodes", len(participants), s.TotalNodes)
	}
	s.kEff += float64(len(participants)) / float64(s.TotalNodes)
	v := s.value()
	if s.NoiseStd > 0 {
		v += s.rng.NormFloat64() * s.NoiseStd
	}
	// Accuracy is monotone in expectation; clamp noise to a sane band.
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	s.acc = v
	return s.acc, nil
}

// Accuracy implements Model.
func (s *SurrogateCurve) Accuracy() float64 { return s.acc }

func (s *SurrogateCurve) value() float64 {
	v := s.AInf - s.B*math.Exp(-s.kEff/s.Tau)
	if s.B2 > 0 {
		v -= s.B2 * math.Exp(-s.kEff/s.Tau2)
	}
	return v
}

// Preset identifies a calibrated surrogate parameterization.
type Preset int

// Calibrated presets. MNISTLarge is fit directly to the paper's Table I
// (0.916@16, 0.929@23, 0.938@31, 0.943@34 rounds); the others preserve the
// relative task difficulty of the paper's Figs. 4–6.
const (
	PresetMNIST Preset = iota + 1
	PresetFashion
	PresetCIFAR
	PresetMNISTLarge
)

// String implements fmt.Stringer.
func (p Preset) String() string {
	switch p {
	case PresetMNIST:
		return "mnist"
	case PresetFashion:
		return "fashion-mnist"
	case PresetCIFAR:
		return "cifar-10"
	case PresetMNISTLarge:
		return "mnist-100nodes"
	default:
		return fmt.Sprintf("preset(%d)", int(p))
	}
}

// ErrUnknownPreset reports a dataset name outside the vocabulary of
// ParsePreset.
var ErrUnknownPreset = errors.New("accuracy: unknown dataset")

// presetNames is the one dataset vocabulary of scenario specs, chirond
// sessions and the chiron CLI: each task's short and long names and
// common spellings, and the Table I preset.
var presetNames = map[string]Preset{
	"mnist":          PresetMNIST,
	"fashion":        PresetFashion,
	"fashion-mnist":  PresetFashion,
	"fmnist":         PresetFashion,
	"cifar":          PresetCIFAR,
	"cifar10":        PresetCIFAR,
	"cifar-10":       PresetCIFAR,
	"mnist-large":    PresetMNISTLarge,
	"mnist-100nodes": PresetMNISTLarge,
}

// ParsePreset resolves a dataset name, in any letter case, to its preset.
func ParsePreset(name string) (Preset, error) {
	if p, ok := presetNames[strings.ToLower(name)]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("%w %q (want mnist, fashion, cifar, or mnist-large)", ErrUnknownPreset, name)
}

// PresetNames returns every name ParsePreset accepts, in lower case,
// sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presetNames))
	for n := range presetNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Task returns the synthetic dataset and classifier-MLP width a preset's
// real FedAvg training runs on, with samples examples. The noise levels
// are raised relative to the surrogate presets so the measured accuracy
// climbs gradually over tens of rounds instead of saturating immediately;
// see DESIGN.md. The Table I preset is a fitted curve with no task.
func Task(p Preset, samples int) (spec dataset.SynthSpec, hidden int, err error) {
	switch p {
	case PresetMNIST:
		spec = dataset.SynthMNIST(samples)
		spec.Noise, spec.Overlap, spec.Jitter = 0.9, 0.2, 2
		return spec, 32, nil
	case PresetFashion:
		spec = dataset.SynthFashion(samples)
		spec.Noise, spec.Overlap = 1.2, 0.35
		return spec, 32, nil
	case PresetCIFAR:
		spec = dataset.SynthCIFAR(samples)
		spec.Noise, spec.Overlap = 1.5, 0.55
		return spec, 48, nil
	default:
		return dataset.SynthSpec{}, 0, fmt.Errorf("accuracy: preset %v has no real-training task", p)
	}
}

// NewPresetCurve returns the calibrated surrogate for a dataset preset and
// fleet size.
func NewPresetCurve(rng *rand.Rand, p Preset, totalNodes int) (*SurrogateCurve, error) {
	switch p {
	case PresetMNIST:
		return NewSurrogateCurve(rng, 0.99, 0.89, 8.0, 0.002, totalNodes)
	case PresetFashion:
		return NewSurrogateCurve(rng, 0.90, 0.80, 10.0, 0.003, totalNodes)
	case PresetCIFAR:
		return NewSurrogateCurve(rng, 0.65, 0.55, 16.0, 0.004, totalNodes)
	case PresetMNISTLarge:
		// Two-term fit to Table I: the slow tail 0.138·exp(−k/11.4) alone
		// reproduces 0.916@16 / 0.929@23 / 0.938@31 / 0.943@34, and the
		// fast term 0.712·exp(−k/3) restores the early climb from random
		// guessing (A(0) ≈ 0.10) that the tail-only fit would erase.
		return NewTwoTermCurve(rng, 0.95, 0.138, 11.4, 0.712, 3.0, 0.002, totalNodes)
	default:
		return nil, fmt.Errorf("accuracy: unknown preset %v", p)
	}
}
