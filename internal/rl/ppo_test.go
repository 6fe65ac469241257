package rl

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/mat"
)

func TestPPOConfigValidation(t *testing.T) {
	if err := DefaultPPOConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*PPOConfig){
		func(c *PPOConfig) { c.Gamma = -0.1 },
		func(c *PPOConfig) { c.Gamma = 1.1 },
		func(c *PPOConfig) { c.ActorLR = 0 },
		func(c *PPOConfig) { c.CriticLR = -1 },
		func(c *PPOConfig) { c.UpdateEpochs = 0 },
		func(c *PPOConfig) { c.EntropyCoef = -1 },
		func(c *PPOConfig) { c.Hidden = nil },
	}
	for i, mutate := range mutations {
		cfg := DefaultPPOConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestPPOGammaZeroAllowed(t *testing.T) {
	// γ=0 is the myopic DRL-based baseline's setting and must validate.
	cfg := DefaultPPOConfig()
	cfg.Gamma = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("gamma 0 rejected: %v", err)
	}
}

func TestPPODefaultsMatchPaper(t *testing.T) {
	cfg := DefaultPPOConfig()
	if cfg.Gamma != 0.95 {
		t.Fatalf("gamma %v, want 0.95", cfg.Gamma)
	}
	if cfg.ActorLR != 3e-5 || cfg.CriticLR != 3e-5 {
		t.Fatalf("lr %v/%v, want 3e-5", cfg.ActorLR, cfg.CriticLR)
	}
	if lrDecayFactor != 0.95 || lrDecayEvery != 20 {
		t.Fatalf("decay %v/%d, want 0.95/20", lrDecayFactor, lrDecayEvery)
	}
}

// TestEndEpisodeDecay: the learning rate holds for 19 episodes and decays
// by ×0.95 at the 20th, the paper's schedule.
func TestEndEpisodeDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultPPOConfig()
	agent, err := NewPPO(rng, 3, 1, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	for ep := 1; ep < lrDecayEvery; ep++ {
		if lr := agent.EndEpisode(); lr != cfg.ActorLR {
			t.Fatalf("lr after %d episodes %v, want %v", ep, lr, cfg.ActorLR)
		}
	}
	if lr := agent.EndEpisode(); math.Abs(lr-cfg.ActorLR*0.95) > 1e-15 {
		t.Fatalf("lr after %d episodes %v, want %v", lrDecayEvery, lr, cfg.ActorLR*0.95)
	}
}

func TestUpdateRejectsEmptyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	agent, err := NewPPO(rng, 2, 1, DefaultPPOConfig())
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	if _, err := agent.Update(&Buffer{}); err == nil {
		t.Fatal("Update accepted empty buffer")
	}
}

// sigmoid squashes a pre-squash bandit action into (0, 1).
func sigmoid(u float64) float64 { return 1 / (1 + math.Exp(-u)) }

// ppoBanditEpisode collects one episode of a 1-step continuous bandit whose
// reward is -(squash(a) - target)²: the optimum is a known action.
func ppoBanditEpisode(rng *rand.Rand, agent *PPO, target float64) (*Buffer, float64) {
	buf := &Buffer{}
	state := []float64{1}
	var total float64
	for i := 0; i < 16; i++ {
		act, lp, _ := agent.Act(rng, state)
		a := sigmoid(act[0])
		r := -(a - target) * (a - target)
		total += r
		buf.Add(Transition{
			State: state, Action: act, Reward: r,
			NextState: state, Done: true, LogProb: lp,
		})
	}
	return buf, total / 16
}

// TestPPOLearnsBandit trains on the bandit and checks the policy mean
// converges toward the optimal action.
func TestPPOLearnsBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultPPOConfig()
	cfg.ActorLR = 3e-3
	cfg.CriticLR = 3e-3
	cfg.Hidden = []int{16}
	agent, err := NewPPO(rng, 1, 1, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	const target = 0.8
	var first, last float64
	for ep := 0; ep < 150; ep++ {
		buf, mean := ppoBanditEpisode(rng, agent, target)
		if ep == 0 {
			first = mean
		}
		last = mean
		if _, err := agent.Update(buf); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	if last < first {
		t.Fatalf("PPO did not improve: %v -> %v", first, last)
	}
	act, err := agent.ActDeterministic([]float64{1})
	if err != nil {
		t.Fatalf("ActDeterministic: %v", err)
	}
	if got := sigmoid(act[0]); math.Abs(got-target) > 0.2 {
		t.Fatalf("learned action %v, want ≈%v", got, target)
	}
}

func TestUpdateStatsSane(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultPPOConfig()
	agent, err := NewPPO(rng, 2, 2, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	buf := &Buffer{}
	state := []float64{0.5, -0.5}
	for i := 0; i < 10; i++ {
		act, lp, _ := agent.Act(rng, state)
		buf.Add(Transition{
			State: state, Action: act, Reward: rng.Float64(),
			NextState: state, Done: i == 9, LogProb: lp,
		})
	}
	stats, err := agent.Update(buf)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if stats.NumSamples != 10 {
		t.Fatalf("NumSamples %d", stats.NumSamples)
	}
	if stats.ClipFrac < 0 || stats.ClipFrac > 1 {
		t.Fatalf("ClipFrac %v", stats.ClipFrac)
	}
	if math.IsNaN(stats.ActorLoss) || math.IsNaN(stats.CriticLoss) {
		t.Fatal("NaN losses")
	}
	if stats.MeanRatio < 0.1 || stats.MeanRatio > 10 {
		t.Fatalf("MeanRatio %v wildly off 1", stats.MeanRatio)
	}
}

// TestCriticLearnsValue regresses the critic toward a constant-reward
// terminal process: V(s) should approach r.
func TestCriticLearnsValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultPPOConfig()
	cfg.CriticLR = 1e-2
	cfg.ActorLR = 1e-6 // hold the policy still
	cfg.Hidden = []int{8}
	agent, err := NewPPO(rng, 1, 1, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	state := []float64{0.7}
	const reward = 2.5
	for ep := 0; ep < 60; ep++ {
		buf := &Buffer{}
		for i := 0; i < 8; i++ {
			act, lp, _ := agent.Act(rng, state)
			buf.Add(Transition{State: state, Action: act, Reward: reward, NextState: state, Done: true, LogProb: lp})
		}
		if _, err := agent.Update(buf); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	x, _ := mat.NewFromData(1, len(state), state)
	values, err := agent.critic.Forward(x)
	if err != nil {
		t.Fatalf("critic forward: %v", err)
	}
	if v := values.At(0, 0); math.Abs(v-reward) > 0.5 {
		t.Fatalf("critic value %v, want ≈%v", v, reward)
	}
}

// TestPPORatioClipBound verifies the clipped surrogate never lets the
// importance ratio's gradient act outside [1−ε, 1+ε] in the loss value.
func TestPPOClipFracGrowsWithStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultPPOConfig()
	cfg.ActorLR = 1e-2 // deliberately large to force policy drift
	cfg.UpdateEpochs = 30
	agent, err := NewPPO(rng, 1, 1, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	buf := &Buffer{}
	state := []float64{0.2}
	for i := 0; i < 12; i++ {
		act, lp, _ := agent.Act(rng, state)
		buf.Add(Transition{State: state, Action: act, Reward: float64(i), NextState: state, Done: true, LogProb: lp})
	}
	stats, err := agent.Update(buf)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	// After 30 aggressive epochs on one batch some samples must clip.
	if stats.ClipFrac == 0 {
		t.Fatal("no clipping after aggressive updates; clip logic suspect")
	}
}
