package mat

import (
	"fmt"
	"math"
)

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	cp := make([]float64, len(v))
	copy(cp, v)
	return cp
}

// SumVec returns the sum of the elements of v.
func SumVec(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum
}

// MeanVec returns the arithmetic mean of v, or 0 for an empty slice.
func MeanVec(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return SumVec(v) / float64(len(v))
}

// StdVec returns the population standard deviation of v, or 0 when v has
// fewer than two elements.
func StdVec(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	mean := MeanVec(v)
	var sum float64
	for _, x := range v {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(v)))
}

// MaxVec returns the maximum element of v and its index; it returns
// (-Inf, -1) for an empty slice.
func MaxVec(v []float64) (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Softmax writes the softmax of src into dst (which may alias src) and
// returns dst. It is numerically stable for large logits.
func Softmax(dst, src []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, len(src))
	}
	if len(dst) != len(src) {
		return nil, fmt.Errorf("%w: softmax len %d into %d", ErrShape, len(src), len(dst))
	}
	if len(src) == 0 {
		return dst, nil
	}
	maxv, _ := MaxVec(src)
	var sum float64
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst, nil
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize rescales v in place so its elements sum to one. When the sum is
// non-positive it falls back to the uniform distribution.
func Normalize(v []float64) {
	if len(v) == 0 {
		return
	}
	sum := SumVec(v)
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	ScaleVec(v, 1/sum)
}
