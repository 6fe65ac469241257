package propcheck

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepInvariantsProperty drives whole episodes of random environments
// (random fleets, churn, fault schedules, deadlines, quorums, failure
// payments) with adversarial price vectors and checks every paper law the
// environment must uphold at each step:
//
//   - joined nodes follow the Eqn. (11) clipped best response — comm
//     jitter may change participation but never ζ*;
//   - the failure-payment-exact accounting rule and the participant /
//     completion counts (CheckRoundAccounting);
//   - T_k = max_i T_{i,k}, deadline caps, Lemma 1 idle-time sign, and the
//     Eqn. (16) efficiency range (CheckTimeLaws);
//   - quorum-missed rounds freeze the accuracy;
//   - the Eqn. (14)/(15) reward identities, including the empty-offer
//     timeout penalty;
//   - the ledger never overspends η and a budget stop leaves no trace.
func TestStepInvariantsProperty(t *testing.T) {
	Trials(t, 301, DefaultTrials, func(t *testing.T, rng *rand.Rand, trial int) {
		env, err := RandomEnv(rng, 6)
		if err != nil {
			t.Fatalf("trial %d: RandomEnv: %v", trial, err)
		}
		if err := env.Reset(); err != nil {
			t.Fatalf("trial %d: Reset: %v", trial, err)
		}
		cfg := env.Config()
		ledger := env.Ledger()
		lastAcc := cfg.Accuracy.Accuracy()
		minQuorum := cfg.MinQuorum
		if minQuorum <= 0 {
			minQuorum = 1
		}
		steps := 0
		for !env.Done() {
			envRound := env.Round()
			prices := RandomPrices(rng, env)
			roundsBefore := ledger.NumRounds()
			wasteBefore := ledger.WastedTime()
			remBefore := ledger.Remaining()
			res, err := env.Step(prices)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, steps, err)
			}
			if err := CheckLedger(ledger); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, steps, err)
			}
			switch {
			case ledger.NumRounds() > roundsBefore: // a committed training round
				r := &ledger.Rounds()[ledger.NumRounds()-1]
				if err := CheckRoundAccounting(r, cfg.FailurePayment); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, steps, err)
				}
				if err := CheckTimeLaws(r); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, steps, err)
				}
				// The churn checker needs the environment round the record
				// was played at, not its ledger index — empty offers advance
				// the former without the latter.
				if err := CheckChurnRound(r, cfg.Churn, envRound); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, steps, err)
				}
				if err := CheckQuorumRule(r, lastAcc, cfg.MinQuorum); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, steps, err)
				}
				for i, node := range env.Nodes() {
					if r.Freqs[i] <= 0 {
						continue
					}
					interior := prices[i] / (2 * node.Capacitance * float64(node.Epochs) * node.CyclesPerBit * node.DataBits)
					clipped := math.Min(math.Max(interior, node.FreqMin), node.FreqMax)
					if !approxEqual(r.Freqs[i], clipped, tolExact) {
						t.Fatalf("trial %d step %d node %d: ζ=%v, Eqn. (11) gives %v",
							trial, steps, i, r.Freqs[i], clipped)
					}
					if cfg.RoundDeadline > 0 && r.Times[i] > cfg.RoundDeadline*(1+tolExact) {
						t.Fatalf("trial %d step %d node %d: time %v past deadline %v",
							trial, steps, i, r.Times[i], cfg.RoundDeadline)
					}
				}
				if r.Completed < minQuorum && r.Accuracy != lastAcc {
					t.Fatalf("trial %d step %d: quorum missed (%d < %d) but accuracy moved %v → %v",
						trial, steps, r.Completed, minQuorum, lastAcc, r.Accuracy)
				}
				wantExt := cfg.Lambda*(r.Accuracy-lastAcc) - cfg.TimeWeight*r.RoundTime()
				if !approxEqual(res.ExteriorReward, wantExt, tolLoose) {
					t.Fatalf("trial %d step %d: exterior reward %v ≠ λΔA − wT = %v",
						trial, steps, res.ExteriorReward, wantExt)
				}
				if !approxEqual(res.InnerReward, -r.IdleTime(), tolLoose) {
					t.Fatalf("trial %d step %d: inner reward %v ≠ −idle = %v",
						trial, steps, res.InnerReward, -r.IdleTime())
				}
				if res.InnerReward > tolExact {
					t.Fatalf("trial %d step %d: inner reward %v > 0 violates Lemma 1's sign",
						trial, steps, res.InnerReward)
				}
				lastAcc = r.Accuracy
			case ledger.WastedTime() > wasteBefore: // empty offer: timeout penalty
				timeout := env.Pipeline().Settle.EmptyTimeout
				if !approxEqual(ledger.WastedTime()-wasteBefore, timeout, tolExact) {
					t.Fatalf("trial %d step %d: waste grew %v, want timeout %v",
						trial, steps, ledger.WastedTime()-wasteBefore, timeout)
				}
				if !approxEqual(res.ExteriorReward, -cfg.TimeWeight*timeout, tolExact) {
					t.Fatalf("trial %d step %d: empty-offer exterior reward %v, want %v",
						trial, steps, res.ExteriorReward, -cfg.TimeWeight*timeout)
				}
				if !approxEqual(res.InnerReward, -float64(env.NumNodes())*timeout, tolExact) {
					t.Fatalf("trial %d step %d: empty-offer inner reward %v, want %v",
						trial, steps, res.InnerReward, -float64(env.NumNodes())*timeout)
				}
				if ledger.Remaining() != remBefore {
					t.Fatalf("trial %d step %d: empty offer spent budget", trial, steps)
				}
			default: // budget stop: discarded round, episode over, no trace
				if !res.Done {
					t.Fatalf("trial %d step %d: nothing recorded yet episode continues", trial, steps)
				}
				if res.ExteriorReward != 0 || res.InnerReward != 0 {
					t.Fatalf("trial %d step %d: budget stop carried rewards %v/%v",
						trial, steps, res.ExteriorReward, res.InnerReward)
				}
				if ledger.Remaining() != remBefore {
					t.Fatalf("trial %d step %d: budget stop changed the ledger", trial, steps)
				}
			}
			steps++
			if steps > cfg.MaxRounds {
				t.Fatalf("trial %d: episode ran %d steps past MaxRounds %d", trial, steps, cfg.MaxRounds)
			}
		}
		// A finished episode must refuse further steps.
		if _, err := env.Step(make([]float64, env.NumNodes())); err == nil {
			t.Fatalf("trial %d: Step on finished episode succeeded", trial)
		}
	})
}
