package propcheck

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
)

// The struct-of-arrays bit-identity properties: every batched fleet kernel
// must reproduce the per-node scalar path to the last bit — not "close",
// identical — over random fleets, price regimes, churned/absent nodes, and
// fault schedules. This is the contract that lets the round pipeline swap
// layouts and shard the node axis without perturbing a single golden
// trace.

// TestBatchBestResponseBitIdentity checks the vectorized Eqn. (11) best
// response (interior optimum, box clip, Eqn. (8) reserve screen, realized
// payment/time/energy) against Node.BestResponseWithComm element by
// element, including declined, negatively-priced, and mask-ineligible
// nodes.
func TestBatchBestResponseBitIdentity(t *testing.T) {
	Trials(t, 701, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := 2 + rng.Intn(39)
		nodes := RandomFleet(rng, n)
		fleet := device.FromNodes(nodes)
		prices := make([]float64, n)
		comm := make([]float64, n)
		var eligible []bool
		if rng.Intn(2) == 0 {
			eligible = make([]bool, n)
			for i := range eligible {
				eligible[i] = rng.Intn(4) > 0
			}
		}
		for i := 0; i < n; i++ {
			sat := nodes[i].PriceForFreq(nodes[i].FreqMax)
			// Span decline, starvation, interior, both clip branches, and
			// overshoot; occasionally a negative comm time to hit the guard.
			prices[i] = Uniform(rng, -0.3, 2.5) * sat
			comm[i] = Uniform(rng, -0.1, 1.5) * (nodes[i].CommTime + 1)
		}
		out := device.BatchResponse{
			Joined:  make([]bool, n),
			Freq:    make([]float64, n),
			Time:    make([]float64, n),
			Payment: make([]float64, n),
			Util:    make([]float64, n),
			Energy:  make([]float64, n),
		}
		fleet.BestResponseRange(0, n, prices, comm, eligible, &out)
		for i := 0; i < n; i++ {
			want := nodes[i].BestResponseWithComm(prices[i], comm[i])
			if eligible != nil && !eligible[i] {
				want = device.Response{}
			}
			if out.Joined[i] != want.Participating || out.Freq[i] != want.Freq ||
				out.Time[i] != want.Time || out.Payment[i] != want.Payment ||
				out.Util[i] != want.Utility || out.Energy[i] != want.Energy {
				t.Fatalf("trial %d node %d: batch (join=%v ζ=%b T=%b pay=%b u=%b E=%b) != scalar %+v",
					trial, i, out.Joined[i], out.Freq[i], out.Time[i],
					out.Payment[i], out.Util[i], out.Energy[i], want)
			}
		}
	})
}

// TestBatchSimplexSplitBitIdentity checks the Eqn. (13) price
// decomposition of Chiron's inner head: its proportions (the split of a
// unit total) form a valid simplex and its prices are exactly total·share,
// bit for bit.
func TestBatchSimplexSplitBitIdentity(t *testing.T) {
	Trials(t, 703, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		n := 1 + rng.Intn(40)
		u := make([]float64, n)
		for i := range u {
			u[i] = Uniform(rng, -8, 8)
		}
		total := Uniform(rng, 0.01, 50)
		prices := core.SplitPrices(total, u)
		props := core.SplitPrices(1, u)
		if err := CheckSimplex(props); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckPriceDecomposition(total, props, prices); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	})
}

// twinEnvs draws one random environment twice: once with per-node round
// records and once with CompactRounds, with independently seeded but
// identical accuracy models, churn/fault schedules, and draw RNGs. The pair
// is the fixture for the full-round bit-identity property.
func twinEnvs(rng *rand.Rand) (vec, compact *edgeenv.Env, err error) {
	n := 2 + rng.Intn(15)
	nodes := RandomFleet(rng, n)
	accSeed := rng.Int63()
	presets := []accuracy.Preset{accuracy.PresetMNIST, accuracy.PresetFashion, accuracy.PresetCIFAR}
	preset := presets[rng.Intn(len(presets))]

	base := edgeenv.DefaultConfig(device.FromNodes(nodes), nil, Uniform(rng, 30, 400))
	base.Lambda = Uniform(rng, 100, 4000)
	base.TimeWeight = Uniform(rng, 0, 1.5)
	base.MaxRounds = 6 + rng.Intn(20)
	base.EmptyRoundTimeout = Uniform(rng, 5, 80)
	if rng.Intn(2) == 0 {
		base.CommJitter = Uniform(rng, 0, 0.4)
	}
	if rng.Intn(3) == 0 {
		base.Availability = Uniform(rng, 0.5, 1)
	}
	drawSeed := rng.Int63()
	var faultSeed int64
	rates := RandomRates(rng)
	if rates.Any() {
		faultSeed = rng.Int63()
	}
	if rng.Intn(2) == 0 {
		base.RoundDeadline = Uniform(rng, 10, 400)
	}
	base.MaxRetries = rng.Intn(4)
	base.RetryBackoff = Uniform(rng, 0, 3)
	base.FailurePayment = Uniform(rng, 0, 1)
	base.MinQuorum = rng.Intn(n + 1)
	churnOn := rng.Intn(2) == 0
	churnRates := faults.ChurnRates{
		Depart: Uniform(rng, 0, 0.3),
		Arrive: Uniform(rng, 0.2, 0.9),
	}
	churnSeed := rng.Int63()

	build := func(compact bool) (*edgeenv.Env, error) {
		cfg := base
		cfg.CompactRounds = compact
		acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(accSeed)), preset, n)
		if err != nil {
			return nil, err
		}
		cfg.Accuracy = acc
		if cfg.CommJitter > 0 || (cfg.Availability > 0 && cfg.Availability < 1) {
			cfg.Rng = rand.New(rand.NewSource(drawSeed))
		}
		if rates.Any() {
			sampler, err := faults.NewSampler(rates, faultSeed)
			if err != nil {
				return nil, err
			}
			cfg.Faults = sampler
		}
		if churnOn {
			churn, err := faults.NewChurnSampler(churnRates, churnSeed)
			if err != nil {
				return nil, err
			}
			cfg.Churn = churn
		}
		return edgeenv.New(cfg)
	}
	if vec, err = build(false); err != nil {
		return nil, nil, err
	}
	if compact, err = build(true); err != nil {
		return nil, nil, err
	}
	return vec, compact, nil
}

// TestCompactEpisodeBitIdentity is the full-round property: a compact
// struct-of-arrays episode reproduces the vector-record episode's
// committed aggregates under random fleets, churn, availability, jitter,
// faults, deadlines, retries, failure payments, and quorums. Payments,
// accuracies, round times, and efficiencies must match exactly; only the
// idle-time sum — streamed as N·T_k − ΣT_i instead of Σ(T_k−T_i) — is
// allowed float-reassociation slack.
func TestCompactEpisodeBitIdentity(t *testing.T) {
	Trials(t, 704, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		vec, compact, err := twinEnvs(rng)
		if err != nil {
			t.Fatalf("trial %d: twin envs: %v", trial, err)
		}
		if err := vec.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := compact.Reset(); err != nil {
			t.Fatal(err)
		}
		for k := 0; !vec.Done(); k++ {
			prices := RandomPrices(rng, vec)
			rv, err := vec.Step(prices)
			if err != nil {
				t.Fatalf("trial %d round %d: vector step: %v", trial, k, err)
			}
			rc, err := compact.Step(prices)
			if err != nil {
				t.Fatalf("trial %d round %d: compact step: %v", trial, k, err)
			}
			switch {
			case rv.Done != rc.Done || rv.Truncated != rc.Truncated:
				t.Fatalf("trial %d round %d: termination (%v,%v) != (%v,%v)",
					trial, k, rc.Done, rc.Truncated, rv.Done, rv.Truncated)
			case rv.Round.Payment != rc.Round.Payment:
				t.Fatalf("trial %d round %d: payment %b != %b", trial, k, rc.Round.Payment, rv.Round.Payment)
			case rv.Round.Accuracy != rc.Round.Accuracy:
				t.Fatalf("trial %d round %d: accuracy %b != %b", trial, k, rc.Round.Accuracy, rv.Round.Accuracy)
			case rv.Round.Participants != rc.Round.Participants || rv.Round.Completed != rc.Round.Completed:
				t.Fatalf("trial %d round %d: participants %d/%d != %d/%d", trial, k,
					rc.Round.Participants, rc.Round.Completed, rv.Round.Participants, rv.Round.Completed)
			case rv.Round.RoundTime() != rc.Round.RoundTime():
				t.Fatalf("trial %d round %d: round time %b != %b", trial, k, rc.Round.RoundTime(), rv.Round.RoundTime())
			case rv.Round.TimeEfficiency() != rc.Round.TimeEfficiency():
				t.Fatalf("trial %d round %d: efficiency %b != %b", trial, k,
					rc.Round.TimeEfficiency(), rv.Round.TimeEfficiency())
			case rv.ExteriorReward != rc.ExteriorReward:
				t.Fatalf("trial %d round %d: exterior reward %b != %b", trial, k, rc.ExteriorReward, rv.ExteriorReward)
			}
			scale := math.Max(1, math.Abs(rv.InnerReward))
			if math.Abs(rv.InnerReward-rc.InnerReward) > 1e-9*scale {
				t.Fatalf("trial %d round %d: inner reward %v != %v", trial, k, rc.InnerReward, rv.InnerReward)
			}
		}
		if !compact.Done() {
			t.Fatalf("trial %d: compact episode outlived vector episode", trial)
		}
		if vec.Ledger().TotalSpent() != compact.Ledger().TotalSpent() ||
			vec.Ledger().NumRounds() != compact.Ledger().NumRounds() ||
			vec.Ledger().TotalTime() != compact.Ledger().TotalTime() {
			t.Fatalf("trial %d: ledgers diverged", trial)
		}
	})
}
