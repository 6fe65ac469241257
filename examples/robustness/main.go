// Robustness stresses the learned mechanism beyond the paper's idealized
// assumptions. It trains Chiron on the clean environment, then evaluates
// the same frozen policy under escalating failure regimes: bandwidth
// jitter and node churn (the soft knobs), and injected faults from
// internal/faults — node crashes, stragglers, dropped uploads, and
// corrupted updates — with a round deadline, bounded retries, and
// zero payment to failed nodes. The degradation table is what a
// deployment engineer would want before rollout.
//
// Run with:
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"io"
	"os"

	"chiron"
	"chiron/internal/accuracy"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/faults"
	"chiron/internal/market"
)

func main() {
	if err := run(os.Stdout, 5, 250, 3, 300); err != nil {
		fmt.Fprintf(os.Stderr, "robustness: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes, eps, evalEps int, budget float64) error {
	const seed = 7

	// Train on the clean environment.
	sys, err := chiron.NewSystem(chiron.SystemConfig{
		Nodes: nodes, Dataset: chiron.DatasetMNIST, Budget: budget, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "training Chiron on the clean environment (%d episodes)...\n", eps)
	if _, err := sys.Train(eps, nil); err != nil {
		return err
	}
	ck, err := sys.Agent().Checkpoint()
	if err != nil {
		return err
	}

	// Evaluate the frozen policy under churn and injected faults. Each
	// scenario rebuilds the clean environment (same fleet, same task),
	// perturbs it, and restores the trained weights into a fresh agent
	// bound to it. Faults come with a round deadline 20% above the slowest
	// clean response, so healthy nodes are never cut but crashes time out
	// and big stragglers are dropped.
	setup := experiment.Setup{Preset: accuracy.PresetMNIST, Nodes: nodes, Budget: budget, Seed: seed}
	faultMix := faults.Rates{Crash: 0.03, Straggle: 0.06, Drop: 0.05, Corrupt: 0.03}
	scenarios := []struct {
		name         string
		jitter       float64
		availability float64
		rates        faults.Rates
	}{
		{"clean (paper assumptions)", 0, 0, faults.Rates{}},
		{"±10% bandwidth jitter", 0.10, 0, faults.Rates{}},
		{"±30% bandwidth jitter", 0.30, 0, faults.Rates{}},
		{"90% node availability", 0, 0.90, faults.Rates{}},
		{"70% node availability", 0, 0.70, faults.Rates{}},
		{"faults: light (1x mix)", 0, 0, faultMix},
		{"faults: moderate (3x mix)", 0, 0, faultMix.Scale(3)},
		{"faults: severe (6x mix)", 0, 0, faultMix.Scale(6)},
		{"severe faults + 30% jitter", 0.30, 0, faultMix.Scale(6)},
	}
	fmt.Fprintf(w, "\nfrozen policy under churn and injected faults (%d eval episodes each):\n", evalEps)
	fmt.Fprintf(w, "%-30s %10s %8s %10s %10s\n", "scenario", "accuracy", "rounds", "time-eff", "failures")
	for _, sc := range scenarios {
		res, env, err := experiment.EvalFrozen(ck, setup, evalEps, func(cfg *edgeenv.Config) error {
			if err := experiment.SoftChurn(sc.jitter, sc.availability, seed+2)(cfg); err != nil {
				return err
			}
			return experiment.InjectFaults(sc.rates, seed+3)(cfg)
		})
		if err != nil {
			return err
		}
		// The ledger still holds the final evaluation episode's rounds,
		// so its outcomes give a representative failure count.
		var failures int
		for _, r := range env.Ledger().Rounds() {
			failures += r.Failures()
		}
		fmt.Fprintf(w, "%-30s %10.3f %8d %9.1f%% %10d\n",
			sc.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, failures)
	}
	// Second sweep: fleet churn proper. Unlike the availability knob above
	// (a per-round coin flip), a ChurnSchedule evolves membership as a
	// Markov chain — departed nodes stay gone until they re-arrive, and a
	// mid-round departure forfeits its payment under the failure-payment
	// rule. The table shows the frozen policy degrading as the fleet gets
	// flakier.
	churnGrid := []struct {
		name           string
		depart, arrive float64
	}{
		{"stable fleet (no churn)", 0, 0},
		{"gentle churn (5% / 60%)", 0.05, 0.60},
		{"moderate churn (15% / 50%)", 0.15, 0.50},
		{"heavy churn (30% / 40%)", 0.30, 0.40},
		{"exodus (50% / 20%)", 0.50, 0.20},
	}
	fmt.Fprintf(w, "\nfrozen policy under Markov fleet churn (depart-rate / arrive-rate):\n")
	fmt.Fprintf(w, "%-30s %10s %8s %10s %10s %10s\n", "scenario", "accuracy", "rounds", "time-eff", "absent", "departed")
	for _, sc := range churnGrid {
		res, env, err := experiment.EvalFrozen(ck, setup, evalEps, func(cfg *edgeenv.Config) error {
			if sc.depart == 0 {
				return nil
			}
			var err error
			cfg.Churn, err = faults.NewChurnSampler(faults.ChurnRates{Depart: sc.depart, Arrive: sc.arrive}, seed+4)
			return err
		})
		if err != nil {
			return err
		}
		var absent, departed int
		for _, r := range env.Ledger().Rounds() {
			for _, o := range r.Outcomes {
				switch o {
				case market.OutcomeAbsent:
					absent++
				case market.OutcomeDeparted:
					departed++
				}
			}
		}
		fmt.Fprintf(w, "%-30s %10.3f %8d %9.1f%% %10d %10d\n",
			sc.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, absent, departed)
	}

	fmt.Fprintln(w, "\nthe policy degrades gracefully: jitter erodes time consistency,")
	fmt.Fprintln(w, "node churn slows the accuracy climb via missed participation, and")
	fmt.Fprintln(w, "injected faults cost failed rounds — but the deadline, quorum, and")
	fmt.Fprintln(w, "no-pay-on-failure rules keep every episode running within budget.")
	return nil
}
