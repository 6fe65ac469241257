// Package device implements the paper's edge-node hardware and economic
// model: computation and communication time (Eqns. 6–7), the energy model,
// node utility (Eqn. 8), and each node's optimal best response to a posted
// price (Eqns. 11–12), including the reserve-utility participation
// constraint from OP_{i,k}.
//
// All quantities use SI units: CPU frequency in Hz (cycles/s), data in
// bits, time in seconds, energy in joules. Prices are expressed per unit of
// CPU frequency contribution, matching the paper's p_{i,k}·ζ_{i,k} payment.
package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Node models a single edge node's hardware profile and private economics.
type Node struct {
	// ID identifies the node within its fleet.
	ID int
	// CyclesPerBit is c_i, the CPU cycles needed per bit of training data.
	CyclesPerBit float64
	// DataBits is d_i, the bits processed by one local training epoch.
	DataBits float64
	// FreqMin and FreqMax bound the CPU cycle frequency ζ (Hz).
	FreqMin, FreqMax float64
	// Capacitance is α_i, the effective switched-capacitance coefficient.
	Capacitance float64
	// CommTime is the model upload time T^com in seconds (ξ/B_{i,k}).
	CommTime float64
	// CommEnergyRate is ε_i, joules per second of upload.
	CommEnergyRate float64
	// Reserve is μ_i, the minimum per-round utility for participation.
	Reserve float64
	// Epochs is σ, the local epochs per round.
	Epochs int
	// SampleCount is |D_i|, used as the FedAvg aggregation weight.
	SampleCount int
}

// Validate reports whether the node's parameters are physically sensible.
// The comparisons are negated so that a NaN parameter fails them too, and
// the MaxFloat64 bounds refuse +Inf.
func (n *Node) Validate() error {
	const maxF = math.MaxFloat64
	switch {
	case !(n.CyclesPerBit > 0 && n.CyclesPerBit <= maxF):
		return fmt.Errorf("device: node %d: cycles/bit %v, want finite > 0", n.ID, n.CyclesPerBit)
	case !(n.DataBits > 0 && n.DataBits <= maxF):
		return fmt.Errorf("device: node %d: data bits %v, want finite > 0", n.ID, n.DataBits)
	case !(n.FreqMin > 0 && n.FreqMax >= n.FreqMin && n.FreqMax <= maxF):
		return fmt.Errorf("device: node %d: frequency range [%v,%v]", n.ID, n.FreqMin, n.FreqMax)
	case !(n.Capacitance > 0 && n.Capacitance <= maxF):
		return fmt.Errorf("device: node %d: capacitance %v, want finite > 0", n.ID, n.Capacitance)
	case !(n.CommTime >= 0 && n.CommTime <= maxF && n.CommEnergyRate >= 0 && n.CommEnergyRate <= maxF):
		return fmt.Errorf("device: node %d: communication parameters (%v, %v), want finite >= 0",
			n.ID, n.CommTime, n.CommEnergyRate)
	case !(n.Reserve >= 0 && n.Reserve <= maxF):
		return fmt.Errorf("device: node %d: reserve %v, want finite >= 0", n.ID, n.Reserve)
	case n.Epochs <= 0:
		return fmt.Errorf("device: node %d: epochs %d, want > 0", n.ID, n.Epochs)
	case n.SampleCount <= 0:
		return fmt.Errorf("device: node %d: samples %d, want > 0", n.ID, n.SampleCount)
	}
	return nil
}

// workload returns σ·c_i·d_i, the CPU cycles of one round of local training.
func (n *Node) workload() float64 {
	return float64(n.Epochs) * n.CyclesPerBit * n.DataBits
}

// ComputeTime returns T^cmp_{i,k} = σ c_i d_i / ζ (Eqn. 6).
func (n *Node) ComputeTime(freq float64) float64 {
	if freq <= 0 {
		return math.Inf(1)
	}
	return n.workload() / freq
}

// RoundTime returns the node's total round time T_{i,k} = T^cmp + T^com.
func (n *Node) RoundTime(freq float64) float64 {
	return n.ComputeTime(freq) + n.CommTime
}

// ComputeEnergy returns E^cmp_{i,k} = σ α_i c_i d_i ζ².
func (n *Node) ComputeEnergy(freq float64) float64 {
	return n.Capacitance * n.workload() * freq * freq
}

// Energy returns the node's total round energy E_{i,k} = E^cmp + E^com.
func (n *Node) Energy(freq float64) float64 {
	return n.ComputeEnergy(freq) + n.CommEnergyRate*n.CommTime
}

// Utility returns u_{i,k} = p·ζ − E_{i,k} (Eqn. 8) for the given price and
// frequency.
func (n *Node) Utility(price, freq float64) float64 {
	return price*freq - n.Energy(freq)
}

// Response is a node's reaction to a posted price.
type Response struct {
	// Participating reports whether the node joins the round (its maximum
	// achievable utility clears the reserve μ_i).
	Participating bool
	// Freq is the chosen CPU frequency ζ*, 0 when not participating.
	Freq float64
	// Utility is the node's realized utility at Freq.
	Utility float64
	// Payment is the parameter-server outlay p·ζ*.
	Payment float64
	// Time is the node's total round time T_{i,k}, 0 when not participating.
	Time float64
	// Energy is the node's total energy draw, 0 when not participating.
	Energy float64
}

// BestResponse computes the node's optimal strategy for OP_{i,k}: the
// utility-maximizing frequency ζ* = p/(2σ α c d) (Eqn. 11) clipped to
// [FreqMin, FreqMax], declining the round if even the optimum cannot reach
// the reserve utility.
func (n *Node) BestResponse(price float64) Response {
	return n.BestResponseWithComm(price, n.CommTime)
}

// BestResponseWithComm is BestResponse with an explicit upload time,
// supporting per-round bandwidth variation (the paper's B_{i,k}): the
// environment draws a round-specific T^com and the node best-responds
// against it. The frequency choice itself is unaffected by T^com (Eqn. 11
// depends only on compute-side terms), but participation, time, energy,
// and utility all are.
func (n *Node) BestResponseWithComm(price, commTime float64) Response {
	if price <= 0 || commTime < 0 {
		return Response{}
	}
	// Unconstrained maximizer of the strictly concave u(ζ).
	interior := price / (2 * n.Capacitance * n.workload())
	freq := interior
	if freq < n.FreqMin {
		freq = n.FreqMin
	} else if freq > n.FreqMax {
		freq = n.FreqMax
	}
	energy := n.ComputeEnergy(freq) + n.CommEnergyRate*commTime
	u := price*freq - energy
	if u < n.Reserve {
		return Response{}
	}
	return Response{
		Participating: true,
		Freq:          freq,
		Utility:       u,
		Payment:       price * freq,
		Time:          n.ComputeTime(freq) + commTime,
		Energy:        energy,
	}
}

// PriceForFreq returns the price that makes freq the node's interior best
// response — the inverse of Eqn. 11. Useful for constructing oracle pricing
// strategies in tests and baselines.
func (n *Node) PriceForFreq(freq float64) float64 {
	return 2 * n.Capacitance * n.workload() * freq
}

// MinParticipationPrice returns the smallest price at which the node's best
// response clears its reserve utility, found by bisection (the utility at
// the clipped optimum is nondecreasing in price). It returns +Inf when no
// price below priceCap induces participation.
func (n *Node) MinParticipationPrice(priceCap float64) float64 {
	atCap := n.BestResponse(priceCap)
	if !atCap.Participating {
		return math.Inf(1)
	}
	lo, hi := 0.0, priceCap
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if n.BestResponse(mid).Participating {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// FleetSpec configures random fleet generation following the paper's
// experimental settings (Sec. VI-A).
type FleetSpec struct {
	// N is the number of edge nodes.
	N int
	// CyclesPerBit is c_i (paper: 20 cycles/bit).
	CyclesPerBit float64
	// DataBitsMin/Max bound d_i, the per-epoch training data in bits.
	DataBitsMin, DataBitsMax float64
	// FreqMin is ζ_min for every node (Hz).
	FreqMin float64
	// FreqMaxLow/High bound the random ζ_max (paper: 1.0–2.0 GHz).
	FreqMaxLow, FreqMaxHigh float64
	// CommTimeMin/Max bound the upload time (paper: 10–20 s).
	CommTimeMin, CommTimeMax float64
	// Capacitance is α_i (paper: 2e-28).
	Capacitance float64
	// CommEnergyRate is ε_i in J/s.
	CommEnergyRate float64
	// ReserveMax bounds the random reserve utility μ_i ∈ [0, ReserveMax].
	ReserveMax float64
	// Epochs is σ (paper: 5).
	Epochs int
	// SamplesPerNode is |D_i| for FedAvg weighting.
	SamplesPerNode int
}

// DefaultFleetSpec returns the paper's Sec. VI-A constants for n nodes:
// c=20 cycles/bit, ζ_max ∈ [1,2] GHz, T^com ∈ [10,20] s, α=2·10⁻²⁸, σ=5.
// DataBits is sized so that compute time spans a few seconds at full speed
// to tens of seconds at low frequency, making the pricing decision
// meaningful against the 10–20 s communication time.
func DefaultFleetSpec(n int) FleetSpec {
	return FleetSpec{
		N:              n,
		CyclesPerBit:   20,
		DataBitsMin:    3.2e7, // 4 MB of training data per epoch
		DataBitsMax:    4.8e7, // 6 MB
		FreqMin:        1.5e8, // 0.15 GHz
		FreqMaxLow:     1.0e9,
		FreqMaxHigh:    2.0e9,
		CommTimeMin:    10,
		CommTimeMax:    20,
		Capacitance:    2e-28,
		CommEnergyRate: 0.002,
		ReserveMax:     0.02,
		Epochs:         5,
		SamplesPerNode: 600,
	}
}

// Validate reports whether the spec is well formed.
func (s FleetSpec) Validate() error {
	const maxF = math.MaxFloat64
	switch {
	case s.N <= 0:
		return fmt.Errorf("device: fleet size %d, want > 0", s.N)
	case !(s.CyclesPerBit > 0 && s.CyclesPerBit <= maxF):
		return fmt.Errorf("device: cycles/bit %v, want finite > 0", s.CyclesPerBit)
	case !(s.DataBitsMin > 0 && s.DataBitsMax >= s.DataBitsMin && s.DataBitsMax <= maxF):
		return fmt.Errorf("device: data bits range [%v,%v]", s.DataBitsMin, s.DataBitsMax)
	case !(s.FreqMin > 0 && s.FreqMaxLow >= s.FreqMin && s.FreqMaxHigh >= s.FreqMaxLow && s.FreqMaxHigh <= maxF):
		return fmt.Errorf("device: frequency ranges [%v,%v,%v]", s.FreqMin, s.FreqMaxLow, s.FreqMaxHigh)
	case !(s.CommTimeMin >= 0 && s.CommTimeMax >= s.CommTimeMin && s.CommTimeMax <= maxF):
		return fmt.Errorf("device: comm time range [%v,%v]", s.CommTimeMin, s.CommTimeMax)
	case !(s.Capacitance > 0 && s.Capacitance <= maxF):
		return fmt.Errorf("device: capacitance %v, want finite > 0", s.Capacitance)
	case !(s.CommEnergyRate >= 0 && s.CommEnergyRate <= maxF && s.ReserveMax >= 0 && s.ReserveMax <= maxF):
		return fmt.Errorf("device: energy rate %v and reserve cap %v, want finite >= 0", s.CommEnergyRate, s.ReserveMax)
	case s.Epochs <= 0:
		return fmt.Errorf("device: epochs %d, want > 0", s.Epochs)
	case s.SamplesPerNode <= 0:
		return fmt.Errorf("device: samples per node %d, want > 0", s.SamplesPerNode)
	}
	return nil
}

// NewFleet draws a heterogeneous fleet of nodes from the spec using rng.
func NewFleet(rng *rand.Rand, spec FleetSpec) ([]*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	nodes := make([]*Node, spec.N)
	for i := range nodes {
		n := &Node{
			ID:             i,
			CyclesPerBit:   spec.CyclesPerBit,
			DataBits:       uniform(spec.DataBitsMin, spec.DataBitsMax),
			FreqMin:        spec.FreqMin,
			FreqMax:        uniform(spec.FreqMaxLow, spec.FreqMaxHigh),
			Capacitance:    spec.Capacitance,
			CommTime:       uniform(spec.CommTimeMin, spec.CommTimeMax),
			CommEnergyRate: spec.CommEnergyRate,
			Reserve:        uniform(0, spec.ReserveMax),
			Epochs:         spec.Epochs,
			SampleCount:    spec.SamplesPerNode,
		}
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("device: generated invalid node: %w", err)
		}
		nodes[i] = n
	}
	return nodes, nil
}
