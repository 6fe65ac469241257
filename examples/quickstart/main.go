// Quickstart: train Chiron on the paper's small-scale setting — five edge
// nodes, the MNIST-difficulty task, budget η=300 — then evaluate the
// learned pricing policy deterministically and compare it against both
// comparison mechanisms from the paper.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"chiron"
	"chiron/internal/mechanism"
)

func main() {
	if err := run(os.Stdout, 5, 200, 3, 300); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes, episodes, evalEps int, budget float64) error {
	sys, err := chiron.NewSystem(chiron.SystemConfig{
		Nodes:   nodes,
		Dataset: chiron.DatasetMNIST,
		Budget:  budget,
		Seed:    7,
	})
	if err != nil {
		return err
	}

	// Training for ~200 episodes is enough to see the pacing behaviour
	// emerge; the paper trains 500.
	fmt.Fprintf(w, "training Chiron for %d episodes on %d nodes (budget %.0f)...\n",
		episodes, sys.Env().NumNodes(), sys.Env().Ledger().Budget())
	_, err = sys.Train(episodes, func(r chiron.EpisodeResult) {
		if r.Episode%40 == 0 {
			fmt.Fprintf(w, "  episode %3d: rounds=%3d accuracy=%.3f reward=%8.1f\n",
				r.Episode, r.Rounds, r.FinalAccuracy, r.ExteriorReturn)
		}
	})
	if err != nil {
		return err
	}

	// Evaluate all three mechanisms under the identical budget.
	chironRes, err := sys.Evaluate(evalEps)
	if err != nil {
		return err
	}
	drl, err := sys.NewBaselineDRL()
	if err != nil {
		return err
	}
	if _, err := drl.Train(episodes, nil); err != nil {
		return err
	}
	drlRes, err := mechanism.Evaluate(drl, evalEps)
	if err != nil {
		return err
	}
	greedy, err := sys.NewBaselineGreedy()
	if err != nil {
		return err
	}
	if _, err := greedy.Train(episodes, nil); err != nil {
		return err
	}
	greedyRes, err := mechanism.Evaluate(greedy, evalEps)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nsame budget, three mechanisms:")
	fmt.Fprintf(w, "%-12s %10s %8s %10s %10s\n", "mechanism", "accuracy", "rounds", "time-eff", "utility")
	for _, row := range []struct {
		name string
		r    chiron.EpisodeResult
	}{
		{"Chiron", chironRes},
		{"DRL-based", drlRes},
		{"Greedy", greedyRes},
	} {
		fmt.Fprintf(w, "%-12s %10.3f %8d %9.1f%% %10.1f\n",
			row.name, row.r.FinalAccuracy, row.r.Rounds, 100*row.r.TimeEfficiency, row.r.ServerUtility)
	}
	fmt.Fprintln(w, "\nChiron paces the budget across more training rounds, ending with the")
	fmt.Fprintln(w, "best model under the same total payment (the paper's Fig. 4 behaviour).")
	return nil
}
