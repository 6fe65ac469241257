package propcheck

import (
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// mechEnv builds a small faulted environment every mechanism runs against:
// a paper-distribution fleet under crash/straggle/drop/corrupt faults, a
// partial failure payment, a deadline, and a retry budget — so the
// failure-payment accounting and deadline laws get mechanism-level
// coverage, not just Step-level.
func mechEnv(t *testing.T, seed int64) *edgeenv.Env {
	t.Helper()
	const nodes = 4
	rng := rand.New(rand.NewSource(seed))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(seed+1)), accuracy.PresetMNIST, nodes)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, 50)
	cfg.MaxRounds = 10
	sampler, err := faults.NewSampler(faults.Rates{Crash: 0.05, Straggle: 0.1, Drop: 0.05, Corrupt: 0.05}, seed+2)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	cfg.Faults = sampler
	cfg.FailurePayment = 0.25
	cfg.RoundDeadline = 300
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 0.5
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("edgeenv.New: %v", err)
	}
	return env
}

// smallPPO shrinks a PPO config to property-test scale: the laws under
// test do not depend on network capacity, only on the action plumbing.
func smallPPO(cfg rl.PPOConfig) rl.PPOConfig {
	cfg.Hidden = []int{8}
	cfg.UpdateEpochs = 3
	return cfg
}

// checkEpisode runs the full invariant catalogue against one finished
// episode of any mechanism.
func checkEpisode(t *testing.T, name string, env *edgeenv.Env, res mechanism.EpisodeResult, episode int) {
	t.Helper()
	if err := CheckEpisodeResult(env, res); err != nil {
		t.Fatalf("%s episode %d: %v", name, episode, err)
	}
	cfg := env.Config()
	maxTotal := env.MaxTotalPrice()
	for i := range env.Ledger().Rounds() {
		r := &env.Ledger().Rounds()[i]
		if err := CheckRoundAccounting(r, cfg.FailurePayment); err != nil {
			t.Fatalf("%s episode %d round %d: %v", name, episode, r.Index, err)
		}
		if err := CheckTimeLaws(r); err != nil {
			t.Fatalf("%s episode %d round %d: %v", name, episode, r.Index, err)
		}
		// Every mechanism prices within the feasible exterior action space:
		// non-negative per-node prices whose total respects the fleet's
		// saturation price (the a^E bound behind Eqn. 13).
		var sum float64
		for j, p := range r.Prices {
			if p < 0 {
				t.Fatalf("%s episode %d round %d: negative price %v for node %d",
					name, episode, r.Index, p, j)
			}
			sum += p
		}
		if sum > maxTotal*(1+tolLoose) {
			t.Fatalf("%s episode %d round %d: total price %v exceeds saturation %v",
				name, episode, r.Index, sum, maxTotal)
		}
	}
}

// TestMechanismInvariantsProperty runs ≥200 seeded episodes for Chiron and
// all four baselines on the faulted environment and checks the invariant
// catalogue after every episode. Learning mechanisms train throughout, so
// the laws are checked across the whole policy trajectory, not one frozen
// policy.
func TestMechanismInvariantsProperty(t *testing.T) {
	builders := []struct {
		name  string
		build func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism
	}{
		{"Uniform", func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism {
			m, err := baselines.NewUniform(env, 0.5)
			if err != nil {
				t.Fatalf("NewUniform: %v", err)
			}
			return m
		}},
		{"EqualTime", func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism {
			m, err := baselines.NewEqualTime(env, 1.25*baselines.MinFeasibleTime(env))
			if err != nil {
				t.Fatalf("NewEqualTime: %v", err)
			}
			return m
		}},
		{"Greedy", func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism {
			cfg := baselines.DefaultGreedyConfig()
			cfg.Seed = 11
			m, err := baselines.NewGreedy(env, cfg)
			if err != nil {
				t.Fatalf("NewGreedy: %v", err)
			}
			return m
		}},
		{"DRLBased", func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism {
			cfg := baselines.DefaultDRLBasedConfig()
			cfg.PPO = smallPPO(cfg.PPO)
			cfg.Seed = 12
			m, err := baselines.NewDRLBased(env, cfg)
			if err != nil {
				t.Fatalf("NewDRLBased: %v", err)
			}
			return m
		}},
		{"Chiron", func(t *testing.T, env *edgeenv.Env) mechanism.Mechanism {
			cfg := core.DefaultConfig()
			cfg.Exterior = smallPPO(cfg.Exterior)
			cfg.Inner = smallPPO(cfg.Inner)
			cfg.Seed = 13
			m, err := core.New(env, cfg)
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			return m
		}},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			env := mechEnv(t, 31)
			m := b.build(t, env)
			for episode := 0; episode < DefaultTrials; episode++ {
				res, err := m.RunEpisode(true)
				if err != nil {
					t.Fatalf("%s episode %d: %v", b.name, episode, err)
				}
				checkEpisode(t, b.name, env, res, episode)
			}
		})
	}
}

// TestSimplexDecompositionProperty checks Chiron's Eqn. (13) split
// directly: the inner agent's simplex projection (the split of a unit
// total) always lands on the simplex, and splitting an exterior total
// reproduces per-node prices that exhaust it.
func TestSimplexDecompositionProperty(t *testing.T) {
	Trials(t, 401, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := 2 + rng.Intn(10)
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = Uniform(rng, -20, 20)
		}
		props := core.SplitPrices(1, raw)
		if err := CheckSimplex(props); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := Uniform(rng, 0, 100)
		prices := core.SplitPrices(total, raw)
		if err := CheckPriceDecomposition(total, props, prices); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	})
}
