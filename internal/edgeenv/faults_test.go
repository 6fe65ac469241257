package edgeenv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/faults"
	"chiron/internal/market"
)

// faultEnv builds an env on the same deterministic fleet as testEnv but lets
// the caller adjust the config (fault schedule, deadline, quorum, ...) first.
func faultEnv(t *testing.T, nodes int, budget float64, mutate func(*Config)) *Env {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(8)), accuracy.PresetMNIST, nodes)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	cfg := DefaultConfig(fleet, acc, budget)
	if mutate != nil {
		mutate(&cfg)
	}
	env, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return env
}

// cleanRound plays one full-price round on a fault-free env and returns it,
// as the baseline the fault tests compare payments and times against.
func cleanRound(t *testing.T, nodes int, budget float64) market.Round {
	t.Helper()
	env := testEnv(t, nodes, budget)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	return res.Round
}

func TestFaultConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(2))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rng, accuracy.PresetMNIST, 2)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.RoundDeadline = -1 },
		func(c *Config) { c.MaxRetries = -1 },
		func(c *Config) { c.RetryBackoff = -1 },
		func(c *Config) { c.FailurePayment = -0.1 },
		func(c *Config) { c.FailurePayment = 1.1 },
		func(c *Config) { c.MinQuorum = -1 },
		func(c *Config) { c.MinQuorum = 3 }, // exceeds fleet size
	}
	for i, mutate := range mutations {
		bad := DefaultConfig(fleet, acc, 100)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("fault-config mutation %d accepted", i)
		}
	}
}

func TestScriptedCrashEarnsNoPayment(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Crash}}}
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	r := res.Round
	if r.Outcomes[0] != market.OutcomeCrashed {
		t.Fatalf("outcome[0] = %v, want crashed", r.Outcomes[0])
	}
	if r.Outcomes[1] != market.OutcomeCompleted || r.Outcomes[2] != market.OutcomeCompleted {
		t.Fatalf("healthy outcomes %v, %v", r.Outcomes[1], r.Outcomes[2])
	}
	if r.Completed != 2 || r.Failures() != 1 {
		t.Fatalf("completed %d failures %d, want 2 and 1", r.Completed, r.Failures())
	}
	// The crashed node earns nothing: payment drops by exactly its p·ζ.
	crashedPay := clean.Prices[0] * clean.Freqs[0]
	if crashedPay <= 0 {
		t.Fatal("baseline node 0 earned nothing; test is vacuous")
	}
	if math.Abs(r.Payment-(clean.Payment-crashedPay)) > 1e-9 {
		t.Fatalf("payment %v, want %v", r.Payment, clean.Payment-crashedPay)
	}
	if math.Abs(env.Ledger().TotalSpent()-r.Payment) > 1e-9 {
		t.Fatalf("ledger charged %v for a %v round", env.Ledger().TotalSpent(), r.Payment)
	}
	// Without a deadline the server waits the crashed node's nominal finish.
	if math.Abs(r.Times[0]-clean.Times[0]) > 1e-9 {
		t.Fatalf("crash time %v, want nominal %v", r.Times[0], clean.Times[0])
	}
}

func TestCrashWaitsOutDeadline(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	deadline := clean.RoundTime() * 1.2
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Crash}}}
		c.RoundDeadline = deadline
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Round.Times[0] != deadline {
		t.Fatalf("crash wait %v, want deadline %v", res.Round.Times[0], deadline)
	}
	if res.Round.RoundTime() != deadline {
		t.Fatalf("round time %v, want deadline %v", res.Round.RoundTime(), deadline)
	}
}

func TestDeadlineCutsStraggler(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	// Straggle the slowest node so its 3x-slowed run overshoots a deadline
	// the healthy nodes comfortably meet.
	slowest := 0
	for i, tt := range clean.Times {
		if tt > clean.Times[slowest] {
			slowest = i
		}
	}
	deadline := clean.RoundTime() * 1.2
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {slowest: {Kind: faults.Straggle, Slowdown: 3}}}
		c.RoundDeadline = deadline
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	r := res.Round
	if r.Outcomes[slowest] != market.OutcomeDeadlineCut {
		t.Fatalf("outcome %v, want deadline-cut", r.Outcomes[slowest])
	}
	if r.Times[slowest] != deadline {
		t.Fatalf("cut node time %v, want deadline %v", r.Times[slowest], deadline)
	}
	if r.RoundTime() != deadline {
		t.Fatalf("round time %v, want min(deadline, max T) = %v", r.RoundTime(), deadline)
	}
	// The cut node forfeits its payment under the default zero FailurePayment.
	cutPay := clean.Prices[slowest] * clean.Freqs[slowest]
	if math.Abs(r.Payment-(clean.Payment-cutPay)) > 1e-9 {
		t.Fatalf("payment %v, want %v", r.Payment, clean.Payment-cutPay)
	}
}

func TestSlowStragglerKeptWithoutDeadline(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {1: {Kind: faults.Straggle, Slowdown: 3}}}
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	r := res.Round
	if r.Outcomes[1] != market.OutcomeCompleted {
		t.Fatalf("slowed node outcome %v, want completed (no deadline set)", r.Outcomes[1])
	}
	if math.Abs(r.Times[1]-3*clean.Times[1]) > 1e-9 {
		t.Fatalf("slowed time %v, want %v", r.Times[1], 3*clean.Times[1])
	}
	// Full payment: the update arrived, just late.
	if math.Abs(r.Payment-clean.Payment) > 1e-9 {
		t.Fatalf("payment %v, want clean %v", r.Payment, clean.Payment)
	}
}

func TestFailurePaymentRefundsFraction(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Crash}}}
		c.FailurePayment = 0.5
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	crashedPay := clean.Prices[0] * clean.Freqs[0]
	want := clean.Payment - 0.5*crashedPay
	if math.Abs(res.Round.Payment-want) > 1e-9 {
		t.Fatalf("payment %v, want %v (half refund)", res.Round.Payment, want)
	}
}

func TestDropRetriesCostTimeAndExhaustionDropsNode(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	const backoff = 1.0

	// Within the retry budget: the node completes, but each lost upload
	// costs a re-upload plus backoff.
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Drop, Attempts: 1}}}
		c.MaxRetries = 2
		c.RetryBackoff = backoff
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	comm := env.Nodes()[0].CommTime
	if res.Round.Outcomes[0] != market.OutcomeCompleted {
		t.Fatalf("retried node outcome %v, want completed", res.Round.Outcomes[0])
	}
	want := clean.Times[0] + (comm + backoff)
	if math.Abs(res.Round.Times[0]-want) > 1e-9 {
		t.Fatalf("retried time %v, want %v", res.Round.Times[0], want)
	}
	if math.Abs(res.Round.Payment-clean.Payment) > 1e-9 {
		t.Fatalf("completed-after-retry payment %v, want clean %v", res.Round.Payment, clean.Payment)
	}

	// Beyond the retry budget: the node is abandoned and unpaid.
	env = faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Drop, Attempts: 5}}}
		c.MaxRetries = 2
		c.RetryBackoff = backoff
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if res, err = env.Step(fullPrices(env)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Round.Outcomes[0] != market.OutcomeDropped {
		t.Fatalf("exhausted node outcome %v, want dropped", res.Round.Outcomes[0])
	}
	// Two retries (comm+backoff each) plus the final abandoned upload.
	want = clean.Times[0] + 2*(comm+backoff) + comm
	if math.Abs(res.Round.Times[0]-want) > 1e-9 {
		t.Fatalf("dropped time %v, want %v", res.Round.Times[0], want)
	}
	droppedPay := clean.Prices[0] * clean.Freqs[0]
	if math.Abs(res.Round.Payment-(clean.Payment-droppedPay)) > 1e-9 {
		t.Fatalf("dropped payment %v, want %v", res.Round.Payment, clean.Payment-droppedPay)
	}
}

func TestCorruptUpdateRejectedUnpaid(t *testing.T) {
	clean := cleanRound(t, 3, 1000)
	env := faultEnv(t, 3, 1000, func(c *Config) {
		c.Faults = faults.Script{1: {2: {Kind: faults.Corrupt}}}
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	r := res.Round
	if r.Outcomes[2] != market.OutcomeCorrupted {
		t.Fatalf("outcome %v, want corrupted", r.Outcomes[2])
	}
	// The upload arrived on schedule — only the payment is withheld.
	if math.Abs(r.Times[2]-clean.Times[2]) > 1e-9 {
		t.Fatalf("corrupt time %v, want nominal %v", r.Times[2], clean.Times[2])
	}
	badPay := clean.Prices[2] * clean.Freqs[2]
	if math.Abs(r.Payment-(clean.Payment-badPay)) > 1e-9 {
		t.Fatalf("payment %v, want %v", r.Payment, clean.Payment-badPay)
	}
}

func TestQuorumFailureHoldsAccuracyButEpisodeContinues(t *testing.T) {
	env := faultEnv(t, 3, 1e6, func(c *Config) {
		c.Faults = faults.Script{1: {0: {Kind: faults.Crash}}}
		c.MinQuorum = 3
	})
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Done {
		t.Fatal("quorum-failed round ended the episode")
	}
	if env.Ledger().NumRounds() != 1 {
		t.Fatal("quorum-failed round was not committed")
	}
	// ΔA = 0, so the exterior reward is the pure time penalty.
	wantReward := -env.Config().TimeWeight * res.Round.RoundTime()
	if math.Abs(res.ExteriorReward-wantReward) > 1e-9 {
		t.Fatalf("exterior reward %v, want time-only %v", res.ExteriorReward, wantReward)
	}
	held := res.Round.Accuracy

	// The next, fault-free round makes quorum and resumes the climb from
	// exactly where the model was held.
	res2, err := env.Step(fullPrices(env))
	if err != nil {
		t.Fatalf("Step 2: %v", err)
	}
	if res2.Round.Completed != 3 {
		t.Fatalf("round 2 completed %d, want 3", res2.Round.Completed)
	}
	if res2.Round.Accuracy <= held {
		t.Fatalf("accuracy did not resume climbing: %v -> %v", held, res2.Round.Accuracy)
	}
}

// Property: under sampled crashes, stragglers, drops, and corruptions — with
// a deadline and partial failure payments enabled — total payments never
// exceed the budget η, every committed round's outcome bookkeeping is
// consistent, and episodes terminate.
func TestBudgetInvariantUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fleet, err := device.NewFleet(rng, device.DefaultFleetSpec(3))
		if err != nil {
			return false
		}
		acc, err := accuracy.NewPresetCurve(rng, accuracy.PresetMNIST, 3)
		if err != nil {
			return false
		}
		var deadline float64
		for _, n := range fleet {
			if t := n.ComputeTime(n.FreqMin) + n.CommTime; t*1.2 > deadline {
				deadline = t * 1.2
			}
		}
		sampler, err := faults.NewSampler(faults.Rates{
			Crash: 0.1, Straggle: 0.1, Drop: 0.1, Corrupt: 0.1,
		}, seed)
		if err != nil {
			return false
		}
		cfg := DefaultConfig(device.FromNodes(fleet), acc, 20+rng.Float64()*100)
		cfg.MaxRounds = 50
		cfg.Faults = sampler
		cfg.RoundDeadline = deadline
		cfg.MaxRetries = 2
		cfg.RetryBackoff = 1
		cfg.FailurePayment = rng.Float64()
		cfg.MinQuorum = 2
		env, err := New(cfg)
		if err != nil {
			return false
		}
		if err := env.Reset(); err != nil {
			return false
		}
		steps := 0
		for !env.Done() {
			if _, err := env.Step(env.RandomPrices(rng)); err != nil {
				return false
			}
			steps++
			if steps > cfg.MaxRounds+1 {
				return false
			}
		}
		if env.Ledger().TotalSpent() > cfg.Budget+1e-9 || env.Ledger().Remaining() < -1e-9 {
			return false
		}
		for _, r := range env.Ledger().Rounds() {
			nCompleted := 0
			for _, o := range r.Outcomes {
				if o == market.OutcomeCompleted {
					nCompleted++
				}
			}
			if nCompleted != r.Completed {
				return false
			}
			if r.Completed+r.Failures() != r.Participants {
				return false
			}
			if deadline > 0 && r.RoundTime() > deadline+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
