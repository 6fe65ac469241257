// Command bench is the repository's paper-workload benchmark. It runs five
// workloads — Chiron training at N=5 and N=100, the Fig. 4 comparison
// grid, a 100,000-node fleet, and the chirond server under load — and
// prints each workload's end-to-end metrics by name with their units,
// checking every output against golden digests and in-process twins. A
// traced run (-trace 1) instead reports a per-layer ledger recorded from
// spans this program places around its calls into each layer.
//
// Usage (from the repository root; bench/run.sh builds this program and
// chirond first):
//
//	bash bench/run.sh [-workload all|train-n5|train-n100|grid-fig4|fleet-100k|serve]
//	                  [-seed 7] [-seconds 15] [-trace 0|1] [-out results.jsonl]
//	                  [-spans spans.jsonl]
//	bash bench/run.sh compare <dirA> <dirB>
//
// -workload, -seed, -seconds and -trace are the invocation BENCHMARK.json's
// command is run with, -seconds being its run_seconds. Run length is part of
// a workload (more repetitions; the serve control plane holds each rate for
// a third of it), so compare refuses to judge runs of different lengths.
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any output check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"

	"chiron/internal/experiment"
)

// The workloads, in the order -workload all runs them.
var workloadNames = []string{"train-n5", "train-n100", "grid-fig4", "fleet-100k", "serve"}

// Batch workload sizes. Each repetition is fixed work sized to run in a
// few seconds, so a run measures several of them.
const (
	trainN5Episodes = 30 // Fig. 3 setup: an update on ~100 transitions nearly every episode
	// Fig. 7a setup: ~10-round episodes, an update every ~8 episodes. The
	// transitions stored after a repetition's last update are never trained
	// on, so the update work per round moves with the seed by up to one
	// update's share; ~20 updates keep that share near 5%.
	trainN100Episodes = 150
	fleetNodes        = 100_000 // struct-of-arrays fleet
	fleetRounds       = 100     // committed rounds per episode, by budget sizing
	fleetEpisodes     = 10
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	chirond string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", goldenSeed, "seed every workload input is generated from")
	seconds := fs.Float64("seconds", 15, "measurement time of one workload run (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	chirond := fs.String("chirond", ".bench_build/chirond", "chirond binary the serve workload starts")
	out := fs.String("out", "", "append each result as one JSON line to this file")
	spansPath := fs.String("spans", "", "on a traced run, append every recorded span as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace %d, want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds %v, want > 0\n", *seconds)
		return 2
	}
	if *workload == "all" {
		return runAll(args)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all, %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, chirond: *chirond}
	sink := &spanSink{}
	res, err := runWorkload(*workload, opt, sink)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	res.printHuman(os.Stdout)
	if *out != "" {
		if err := appendJSONL(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := sink.write(*spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := res.summaryLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct() {
		return 1
	}
	return 0
}

func runWorkload(name string, opt options, sink *spanSink) (*Result, error) {
	switch name {
	case "train-n5":
		return runBatch(batchWorkload{name, convergenceSystem(experiment.Fig3, trainN5Episodes)}, opt, sink)
	case "train-n100":
		return runBatch(batchWorkload{name, convergenceSystem(experiment.Fig7a, trainN100Episodes)}, opt, sink)
	case "fleet-100k":
		return runBatch(batchWorkload{name, fleetSystem(fleetNodes, fleetRounds, fleetEpisodes)}, opt, sink)
	case "grid-fig4":
		return runGrid(opt, sink)
	case "serve":
		return runServe(opt, sink)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload in its own subprocess (this program with
// -workload set) and prints a summary. args are the original flags; a
// later -workload overrides the earlier one.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	var summary []string
	for _, w := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		line := lastLine(buf.Bytes())
		var sum struct {
			Correct bool `json:"correct"`
		}
		if jerr := json.Unmarshal(line, &sum); err != nil || jerr != nil || !sum.Correct {
			status = 1
			summary = append(summary, fmt.Sprintf("%-11s FAILED (%v)", w, err))
			continue
		}
		summary = append(summary, fmt.Sprintf("%-11s ok", w))
	}
	fmt.Println("== summary")
	for _, s := range summary {
		fmt.Println("  " + s)
	}
	return status
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := bytes.TrimSpace(sc.Bytes()); len(t) > 0 {
			last = append(last[:0], t...)
		}
	}
	return last
}

// spanSink collects the spans of a traced run for -spans.
type spanSink struct{ spans []span }

func (s *spanSink) add(workload string, r *recorder) {
	for _, sp := range r.spans {
		sp.Workload = workload
		s.spans = append(s.spans, sp)
	}
}

// write appends every collected span to path as JSON lines.
func (s *spanSink) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
