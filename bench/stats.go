package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so a
// spread computed here matches one computed by any harness using that
// function. It needs at least two values; shorter input returns the value
// itself (or zeros when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// 0 for empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailMinAbove is how many samples must lie beyond a reported percentile
// for it to mean anything.
const tailMinAbove = 10

// tail reports the highest percentile not above want that still has at
// least tailMinAbove samples beyond it, with its value. When no percentile
// of the ladder qualifies (fewer than eleven samples) it falls back to the
// median and reports ok=false; empty input gives (0, 0, false).
func tail(xs []float64, want float64) (p, value float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if len(xs)-rank(len(xs), q) >= tailMinAbove {
			return q, percentile(xs, q), true
		}
	}
	return 50, percentile(xs, 50), false
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
