// Largescale reproduces the paper's Table I scenario: Chiron incentivizing
// 100 edge nodes on the MNIST task across four budgets, reporting final
// accuracy, training rounds, and time efficiency per budget.
//
// Fleet-scale round throughput (100k nodes, no learner) is the bench/
// module's fleet-100k workload; see README.md.
//
// Run with:
//
//	go run ./examples/largescale            (fast pass, 150 episodes/budget)
//	go run ./examples/largescale -full      (paper scale, 500 episodes/budget)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"chiron"
)

func main() {
	full := flag.Bool("full", false, "run the paper's full 500 episodes per budget")
	flag.Parse()
	episodes := 150
	if *full {
		episodes = 500
	}
	if err := run(os.Stdout, 100, episodes, []float64{140, 220, 300, 380}); err != nil {
		fmt.Fprintf(os.Stderr, "largescale: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes, episodes int, budgets []float64) error {
	fmt.Fprintf(w, "Table I reproduction: %d nodes, MNIST, %d episodes per budget\n\n", nodes, episodes)
	fmt.Fprintf(w, "%-8s %10s %8s %16s\n", "η", "Accuracy", "Rounds", "Time Efficiency")
	for _, eta := range budgets {
		start := time.Now()
		sys, err := chiron.NewSystem(chiron.SystemConfig{
			Nodes:   nodes,
			Dataset: chiron.DatasetMNIST, // ≥50 nodes selects the Table-I-calibrated curve
			Budget:  eta,
			Seed:    7,
		})
		if err != nil {
			return err
		}
		if _, err := sys.Train(episodes, nil); err != nil {
			return err
		}
		res, err := sys.Evaluate(3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8.0f %10.3f %8d %15.1f%%   (%v)\n",
			eta, res.FinalAccuracy, res.Rounds, 100*res.TimeEfficiency, time.Since(start).Round(time.Second))
	}
	fmt.Fprintln(w, "\npaper's Table I for reference:")
	fmt.Fprintln(w, "  η=140 → 0.916 / 16 rounds / 71.3%")
	fmt.Fprintln(w, "  η=220 → 0.929 / 23 rounds / 72.2%")
	fmt.Fprintln(w, "  η=300 → 0.938 / 31 rounds / 72.7%")
	fmt.Fprintln(w, "  η=380 → 0.943 / 34 rounds / 73.4%")
	return nil
}
