// Robustness stresses the learned mechanism beyond the paper's idealized
// assumptions. It trains Chiron on a clean scenario spec, then evaluates
// the same frozen policy on that spec with escalating failure regimes set:
// bandwidth jitter and node availability, injected faults (crashes,
// stragglers, dropped uploads, corrupted updates) under a round deadline,
// and Markov fleet churn. The degradation table is what a deployment
// engineer would want before rollout.
//
// Run with:
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"io"
	"os"

	"chiron/internal/market"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/scenario"
)

func main() {
	if err := run(os.Stdout, 5, 250, 3, 300); err != nil {
		fmt.Fprintf(os.Stderr, "robustness: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes, eps, evalEps int, budget float64) error {
	base := scenario.Spec{
		Name:          "robustness",
		Dataset:       "mnist",
		Seed:          7,
		Classes:       []scenario.DeviceClass{{Profile: "paper", Count: nodes}},
		Budgets:       []float64{budget},
		Mechanisms:    []string{"chiron"},
		TrainEpisodes: eps,
		EvalEpisodes:  evalEps,
	}

	// Train on the clean environment.
	fmt.Fprintf(w, "training Chiron on the clean environment (%d episodes)...\n", eps)
	trainer, err := open(base)
	if err != nil {
		return err
	}
	if err := trainer.Train(scenario.CellHooks{}); err != nil {
		return err
	}
	ck, err := trainer.Mechanism().(mechanism.Checkpointer).Checkpoint()
	if err != nil {
		return err
	}

	// Evaluate the frozen policy under churn and injected faults: each row
	// is the clean spec (same fleet, same task) with its perturbation set.
	// Faults are k times a base mix under a 60 s round deadline, above the
	// paper fleet's slowest clean response (32 s of compute at the minimum
	// frequency plus at most 26 s of upload under 30% jitter).
	scenarios := []struct {
		name                 string
		jitter, availability float64
		faults               float64 // k, the multiple of the base mix
	}{
		{"clean (paper assumptions)", 0, 0, 0},
		{"±10% bandwidth jitter", 0.10, 0, 0},
		{"±30% bandwidth jitter", 0.30, 0, 0},
		{"90% node availability", 0, 0.90, 0},
		{"70% node availability", 0, 0.70, 0},
		{"faults: light (1x mix)", 0, 0, 1},
		{"faults: moderate (3x mix)", 0, 0, 3},
		{"faults: severe (5x mix)", 0, 0, 5},
		{"severe faults + 30% jitter", 0.30, 0, 5},
	}
	fmt.Fprintf(w, "\nfrozen policy under churn and injected faults (%d eval episodes each):\n", evalEps)
	fmt.Fprintf(w, "%-30s %10s %8s %10s %10s\n", "scenario", "accuracy", "rounds", "time-eff", "failures")
	for _, sc := range scenarios {
		s := base
		s.CommJitter = sc.jitter
		s.Availability = sc.availability
		if k := sc.faults; k > 0 {
			s.Faults = &scenario.FaultSpec{Crash: 0.03 * k, Straggle: 0.06 * k, Drop: 0.05 * k, Corrupt: 0.03 * k}
			s.RoundDeadline = 60
			s.MaxRetries = 2
			s.RetryBackoff = 1
		}
		res, n, err := evalFrozen(s, ck)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-30s %10.3f %8d %9.1f%% %10d\n",
			sc.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, n.failures)
	}
	// Second sweep: fleet churn proper. Unlike the availability knob above
	// (a per-round coin flip), churn rates evolve membership as a Markov
	// chain — departed nodes stay gone until they re-arrive, and a
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
		s := base
		if sc.depart > 0 {
			s.Churn = &scenario.ChurnSpec{Rates: &scenario.ChurnRatesSpec{Depart: sc.depart, Arrive: sc.arrive}}
		}
		res, n, err := evalFrozen(s, ck)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-30s %10.3f %8d %9.1f%% %10d %10d\n",
			sc.name, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, n.absent, n.departed)
	}

	fmt.Fprintln(w, "\nthe policy degrades gracefully: jitter erodes time consistency,")
	fmt.Fprintln(w, "node churn slows the accuracy climb via missed participation, and")
	fmt.Fprintln(w, "injected faults cost failed rounds — but the deadline, quorum, and")
	fmt.Fprintln(w, "no-pay-on-failure rules keep every episode running within budget.")
	return nil
}

// open validates the spec and opens its one (Chiron, budget) cell.
func open(s scenario.Spec) (*scenario.CellRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	return scenario.OpenCell(&s, cells[0])
}

// tally counts the failed, absent and departed node-rounds of one episode.
type tally struct{ failures, absent, departed int }

// evalFrozen restores ck into the spec's cell and averages its evaluation
// episodes, tallying the last one's outcomes, which the ledger still holds.
func evalFrozen(s scenario.Spec, ck *rl.Checkpoint) (mechanism.EpisodeResult, tally, error) {
	var n tally
	run, err := open(s)
	if err != nil {
		return mechanism.EpisodeResult{}, n, err
	}
	m := run.Mechanism()
	if err := m.(mechanism.Checkpointer).Restore(ck); err != nil {
		return mechanism.EpisodeResult{}, n, err
	}
	res, err := run.Evaluate()
	if err != nil {
		return res, n, err
	}
	for _, r := range m.Env().Ledger().Rounds() {
		n.failures += r.Failures()
		for _, o := range r.Outcomes {
			switch o {
			case market.OutcomeAbsent:
				n.absent++
			case market.OutcomeDeparted:
				n.departed++
			}
		}
	}
	return res, n, nil
}
