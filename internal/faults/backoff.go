package faults

import (
	"fmt"
	"math"
)

// Backoff is the one retry/backoff policy shared by every layer that
// re-attempts failed work: the round pipeline's dropped-upload retries
// (internal/round Execute), and the episode supervisor's crash-recovery
// restarts (internal/supervise). It replaces the ad-hoc flat
// MaxRetries+RetryBackoff pairs that used to live in each caller.
//
// Delays are in the simulation's time unit (seconds). The zero value is a
// valid "no retries, no delay" policy.
type Backoff struct {
	// Base is the delay before the first retry attempt.
	Base float64
	// Factor multiplies the delay on each further attempt (geometric
	// backoff). 0 or 1 selects a constant delay of Base per attempt.
	Factor float64
	// Max caps any single delay (0 = uncapped). With Factor > 1 the cap is
	// also the overflow guard: delays saturate at Max instead of running to
	// +Inf at large attempt counts.
	Max float64
	// MaxRetries bounds how many retry attempts are made at all (0 = the
	// first failure is terminal).
	MaxRetries int
}

// Constant returns the flat policy the pre-consolidation round pipeline
// used: up to retries attempts, each preceded by the same base pause.
func Constant(base float64, retries int) Backoff {
	return Backoff{Base: base, Factor: 1, MaxRetries: retries}
}

// Validate reports whether the policy is usable.
func (b Backoff) Validate() error {
	switch {
	case b.Base < 0 || math.IsNaN(b.Base) || math.IsInf(b.Base, 0):
		return fmt.Errorf("faults: backoff base %v, want finite >= 0", b.Base)
	case b.Factor < 0 || math.IsNaN(b.Factor) || math.IsInf(b.Factor, 0):
		return fmt.Errorf("faults: backoff factor %v, want finite >= 0", b.Factor)
	case b.Max < 0 || math.IsNaN(b.Max) || math.IsInf(b.Max, 0):
		return fmt.Errorf("faults: backoff max %v, want finite >= 0", b.Max)
	case b.MaxRetries < 0:
		return fmt.Errorf("faults: backoff max retries %d, want >= 0", b.MaxRetries)
	}
	return nil
}

// flat reports whether every attempt's delay is exactly Base — the case
// where callers may use the closed-form retries·(work+Base) arithmetic.
// Flatness requires a non-binding cap so Delay and the closed form agree.
func (b Backoff) flat() bool {
	return (b.Factor == 0 || b.Factor == 1) && (b.Max == 0 || b.Max >= b.Base)
}

// Delay returns the pause before the attempt-th retry (1-based).
// Non-positive attempts cost nothing. The result is always finite: with
// geometric growth the delay saturates at Max (or MaxFloat64 when no cap is
// set) instead of overflowing to +Inf at large attempt counts.
func (b Backoff) Delay(attempt int) float64 {
	if attempt <= 0 || b.Base <= 0 {
		return 0
	}
	d := b.Base
	if b.Factor > 0 && b.Factor != 1 && attempt > 1 {
		d = b.Base * math.Pow(b.Factor, float64(attempt-1))
	}
	if b.Max > 0 && (d > b.Max || math.IsInf(d, 1)) {
		d = b.Max
	}
	if math.IsInf(d, 1) {
		d = math.MaxFloat64
	}
	return d
}

// RetryTime returns the wall-clock cost of n re-upload attempts that each
// pay commTime plus the attempt's backoff delay. Flat policies use the
// single-multiply closed form n·(commTime+Base) the pre-consolidation
// round pipeline computed, so seeded traces stay bit-identical; geometric
// policies sum per attempt and saturate at MaxFloat64 instead of
// overflowing to +Inf.
func (b Backoff) RetryTime(commTime float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	if b.flat() {
		return float64(n) * (commTime + b.Base)
	}
	var sum float64
	for a := 1; a <= n; a++ {
		sum += commTime + b.Delay(a)
		if math.IsInf(sum, 1) {
			return math.MaxFloat64
		}
	}
	return sum
}
