package baselines

import (
	"fmt"
	"math"

	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
)

// EqualTime is the Lemma-1 oracle: it computes, in closed form from the
// (in reality private) node parameters, the cheapest price vector that
// makes every node finish in the same target round time. It is an upper
// reference for the inner agent's time-consistency objective and an
// ablation baseline — Chiron must learn without the private information
// this oracle reads directly.
type EqualTime struct {
	static
}

var _ mechanism.Mechanism = (*EqualTime)(nil)

// NewEqualTime builds the oracle. target is the desired round time T in
// seconds; it must be at least MinFeasibleTime(env) or nodes will be
// unable to reach it and the slowest node will still define T_k. The
// Lemma-1 prices depend only on the static node parameters, so they are
// computed once here and posted by a static head every round.
func NewEqualTime(env *edgeenv.Env, target float64) (*EqualTime, error) {
	if target <= 0 {
		return nil, fmt.Errorf("baselines: equal-time target %v, want > 0", target)
	}
	st, err := newStatic("EqualTime-Oracle", env, PricesForTime(env.Nodes(), target))
	if err != nil {
		return nil, fmt.Errorf("baselines: equal-time: %w", err)
	}
	return &EqualTime{st}, nil
}

// MinFeasibleTime returns the smallest round time every node can reach:
// max_i (σ c d_i / ζ_i^max + T^com_i).
func MinFeasibleTime(env *edgeenv.Env) float64 {
	var worst float64
	for _, n := range env.Nodes() {
		if t := n.RoundTime(n.FreqMax); t > worst {
			worst = t
		}
	}
	return worst
}

// PricesForTime computes the per-node price vector that makes every node's
// best response finish in the target time (clipped to each node's feasible
// frequency range, and raised to the participation threshold where the
// reserve utility binds).
func PricesForTime(nodes []*device.Node, target float64) []float64 {
	prices := make([]float64, len(nodes))
	for i, n := range nodes {
		cmp := target - n.CommTime
		var freq float64
		if cmp <= 0 {
			freq = n.FreqMax // cannot hit target; run flat out
		} else {
			freq = n.ComputeTime(1) / cmp // σcd/cmp since ComputeTime(1)=σcd
			freq = math.Min(math.Max(freq, n.FreqMin), n.FreqMax)
		}
		p := n.PriceForFreq(freq)
		if !n.BestResponse(p).Participating {
			// Raise to the cheapest participating price; the node will run
			// slightly faster than the target rather than decline.
			if mp := n.MinParticipationPrice(n.PriceForFreq(n.FreqMax)); !math.IsInf(mp, 1) {
				p = mp
			}
		}
		prices[i] = p
	}
	return prices
}
