package propcheck

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/market"
)

// churnPropEnv builds a random environment whose fleet always churns:
// roughly half the trials replay a scripted arrival/departure plan, the
// rest run the seed-deterministic Markov sampler, both over a random
// fleet with random failure-payment, deadline, and quorum settings.
func churnPropEnv(rng *rand.Rand) (*edgeenv.Env, error) {
	n := 2 + rng.Intn(5)
	fleet := device.FromNodes(RandomFleet(rng, n))
	acc, err := accuracy.NewPresetCurve(
		rand.New(rand.NewSource(rng.Int63())), accuracy.PresetMNIST, n)
	if err != nil {
		return nil, err
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, Uniform(rng, 30, 300))
	cfg.MaxRounds = 8 + rng.Intn(17)
	cfg.EmptyRoundTimeout = Uniform(rng, 5, 60)
	if rng.Intn(2) == 0 {
		cfg.RoundDeadline = Uniform(rng, 10, 400)
	}
	if rates := RandomRates(rng); rates.Any() {
		sampler, err := faults.NewSampler(rates, rng.Int63())
		if err != nil {
			return nil, err
		}
		cfg.Faults = sampler
	}
	cfg.FailurePayment = Uniform(rng, 0, 1)
	cfg.MinQuorum = rng.Intn(n + 1)
	if rng.Intn(2) == 0 {
		cfg.Churn, err = randomChurnScript(rng, n, cfg.MaxRounds)
	} else {
		cfg.Churn, err = faults.NewChurnSampler(faults.ChurnRates{
			Depart:        Uniform(rng, 0.05, 0.5),
			Arrive:        Uniform(rng, 0.1, 0.9),
			InitialAbsent: Uniform(rng, 0, 0.6),
		}, rng.Int63())
	}
	if err != nil {
		return nil, err
	}
	return edgeenv.New(cfg)
}

// randomChurnScript draws a valid scripted schedule: per node, a sorted
// sequence of alternating depart/arrive rounds.
func randomChurnScript(rng *rand.Rand, nodes, maxRounds int) (*faults.ChurnScript, error) {
	var events []faults.ChurnEvent
	for node := 0; node < nodes; node++ {
		kind := faults.ChurnDepart
		if rng.Intn(4) == 0 {
			kind = faults.ChurnArrive // node starts outside the fleet
		}
		for round := 1 + rng.Intn(4); round <= maxRounds; round += 1 + rng.Intn(6) {
			events = append(events, faults.ChurnEvent{Round: round, Node: node, Kind: kind})
			if kind == faults.ChurnDepart {
				kind = faults.ChurnArrive
			} else {
				kind = faults.ChurnDepart
			}
		}
	}
	return faults.NewChurnScript(events)
}

// TestChurnLawsProperty runs ≥200 random churning episodes — scripted and
// sampled schedules alike — under adversarial prices and checks the
// survivability laws at every step: the ledger identity stays exact (the
// budget-η accounting of CheckLedger), per-round payments follow the
// failure-payment rule with departures settling at the failure fraction,
// churn-absent nodes never appear in a record, mid-round departures always
// settle as departed, and below-quorum rounds freeze the model.
func TestChurnLawsProperty(t *testing.T) {
	departuresSeen := 0
	Trials(t, 601, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		env, err := churnPropEnv(rng)
		if err != nil {
			t.Fatalf("trial %d: churnPropEnv: %v", trial, err)
		}
		if err := env.Reset(); err != nil {
			t.Fatalf("trial %d: Reset: %v", trial, err)
		}
		cfg := env.Config()
		ledger := env.Ledger()
		prevAcc := math.NaN()
		for !env.Done() {
			envRound := env.Round()
			roundsBefore := ledger.NumRounds()
			res, err := env.Step(RandomPrices(rng, env))
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, envRound, err)
			}
			if err := CheckLedger(ledger); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, envRound, err)
			}
			if ledger.NumRounds() == roundsBefore {
				continue // empty offer or budget stop: no record to check
			}
			r := &res.Round
			if err := CheckRoundAccounting(r, cfg.FailurePayment); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, envRound, err)
			}
			if err := CheckChurnRound(r, cfg.Churn, envRound); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, envRound, err)
			}
			if err := CheckQuorumRule(r, prevAcc, cfg.MinQuorum); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, envRound, err)
			}
			for _, o := range r.Outcomes {
				if o == market.OutcomeDeparted {
					departuresSeen++
				}
			}
			prevAcc = r.Accuracy
		}
	})
	// The laws above are vacuous if no trial ever exercises a mid-round
	// departure; the generator's rates make that practically impossible.
	if departuresSeen == 0 {
		t.Fatal("no mid-round departure settled across all trials; churn generator is broken")
	}
}
