package rl

import (
	"math"
	"math/rand"
	"testing"
)

func TestGaussianPolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGaussianPolicy(rng, 0, 2, []int{8}, -1); err == nil {
		t.Fatal("accepted zero state dim")
	}
	if _, err := NewGaussianPolicy(rng, 3, 0, []int{8}, -1); err == nil {
		t.Fatal("accepted zero action dim")
	}
}

func TestSampleLogProbConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, err := NewGaussianPolicy(rng, 4, 3, []int{16}, -0.5)
	if err != nil {
		t.Fatalf("NewGaussianPolicy: %v", err)
	}
	state := []float64{0.1, -0.2, 0.5, 0.9}
	action, lp, err := p.Sample(rng, state)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if len(action) != 3 {
		t.Fatalf("action dim %d", len(action))
	}
	if lp2 := logProbAt(t, p, state, action); math.Abs(lp-lp2) > 1e-12 {
		t.Fatalf("Sample logprob %v != logprob at the mean %v", lp, lp2)
	}
}

// logProbAt evaluates log π(action|state) under p's current parameters.
func logProbAt(t *testing.T, p *GaussianPolicy, state, action []float64) float64 {
	t.Helper()
	mean, err := p.Mean(state)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	return p.logProb(mean, action)
}

func TestLogProbMaximalAtMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := NewGaussianPolicy(rng, 2, 2, []int{8}, 0)
	if err != nil {
		t.Fatalf("NewGaussianPolicy: %v", err)
	}
	state := []float64{0.3, -0.7}
	mean, err := p.Mean(state)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	atMean := logProbAt(t, p, state, mean)
	for trial := 0; trial < 20; trial++ {
		off := append([]float64(nil), mean...)
		for i := range off {
			off[i] += rng.NormFloat64()
		}
		if lp := logProbAt(t, p, state, off); lp > atMean+1e-12 {
			t.Fatalf("logprob off mean %v > at mean %v", lp, atMean)
		}
	}
}

func TestClampLogStd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, err := NewGaussianPolicy(rng, 2, 2, []int{4}, 100) // clamped at init
	if err != nil {
		t.Fatalf("NewGaussianPolicy: %v", err)
	}
	for _, std := range p.Std() {
		if std > math.Exp(logStdMax)+1e-9 {
			t.Fatalf("init std %v above clamp", std)
		}
	}
	p.logStd.Value.Fill(-100)
	p.ClampLogStd()
	for _, v := range p.logStd.Value.Data() {
		if v < logStdMin {
			t.Fatalf("logstd %v below clamp", v)
		}
	}
}

func TestEntropyIncreasesWithStd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	narrow, err := NewGaussianPolicy(rng, 2, 3, []int{4}, -2)
	if err != nil {
		t.Fatalf("NewGaussianPolicy: %v", err)
	}
	wide, err := NewGaussianPolicy(rng, 2, 3, []int{4}, 0)
	if err != nil {
		t.Fatalf("NewGaussianPolicy: %v", err)
	}
	if narrow.Entropy() >= wide.Entropy() {
		t.Fatalf("entropy ordering wrong: %v >= %v", narrow.Entropy(), wide.Entropy())
	}
}

func TestBufferValidation(t *testing.T) {
	var b Buffer
	if err := b.Validate(); err == nil {
		t.Fatal("empty buffer validated")
	}
	b.Add(Transition{State: []float64{1, 2}, Action: []float64{1}, NextState: []float64{1, 2}})
	if err := b.Validate(); err != nil {
		t.Fatalf("valid buffer rejected: %v", err)
	}
	b.Add(Transition{State: []float64{1}, Action: []float64{1}, NextState: []float64{1}})
	if err := b.Validate(); err == nil {
		t.Fatal("inconsistent buffer validated")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestMarkLastDone(t *testing.T) {
	var b Buffer
	b.MarkLastDone() // no-op on empty
	b.Add(Transition{State: []float64{1}, Action: []float64{1}, NextState: []float64{1}})
	b.Add(Transition{State: []float64{2}, Action: []float64{2}, NextState: []float64{2}})
	b.MarkLastDone()
	trans := b.Transitions()
	if trans[0].Done || !trans[1].Done {
		t.Fatalf("MarkLastDone wrong: %+v", trans)
	}
}
