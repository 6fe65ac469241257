package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloadBounds are the regression bounds of the end-to-end metrics only
// the serve workload reports. BENCHMARK.json holds the bounds of the
// metrics every workload reports and cannot list these; each metric's
// bound is kept in exactly one of the two places. episodes_per_s is not
// judged: episode lengths follow the seed, so it moves with the inputs.
var workloadBounds = map[string]float64{
	"session_p50_s": 0.85,
	"ctl_p50_ms":    0.17,
	"ctl_p99_ms":    0.55,
	"ctl_max_rps":   0.10,
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare implements `compare <A> <B>`: for every workload and
// end-to-end metric present on both sides it prints medians, quartiles,
// B's win share over the alternating pairs, and a verdict against the
// metric's bound. A and B are result files written with -out, or
// directories of them. It exits non-zero when any verdict is regressed or
// unresolved, or when B has failed operations.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] <dirA|fileA> <dirB|fileB>")
		return 2
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if err := sameRunLength(append(append([]Result(nil), a...), b...)); err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	rows, bad := compareResults(a, b, bounds)
	fmt.Fprintf(w, "%-11s %-15s %-6s %-30s %-30s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "B wins", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	if bad {
		return 1
	}
	return 0
}

// loadBounds reads the end-to-end bounds of BENCHMARK.json and adds
// workloadBounds.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for k, v := range workloadBounds {
		bounds[k] = v
	}
	for _, m := range bf.EndToEnd {
		if _, ok := bounds[m.Name]; ok {
			return nil, fmt.Errorf("%s: bound of %s is also set in workloadBounds", path, m.Name)
		}
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// sameRunLength checks that every result was measured for the same time.
// Run length is part of a workload (the serve control plane holds each of
// its rates for a third of it), so runs of different lengths do not compare.
func sameRunLength(rs []Result) error {
	for _, r := range rs {
		if r.Seconds != rs[0].Seconds {
			return fmt.Errorf("results measured for %gs and %gs; compare runs of one length (BENCHMARK.json run_seconds)", rs[0].Seconds, r.Seconds)
		}
	}
	return nil
}

// loadResults reads untraced results from a file or every *.json and
// *.jsonl file of a directory.
func loadResults(path string) ([]Result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files = nil
		for _, pat := range []string{"*.json", "*.jsonl"} {
			m, err := filepath.Glob(filepath.Join(path, pat))
			if err != nil {
				return nil, err
			}
			files = append(files, m...)
		}
	}
	var out []Result
	for _, f := range files {
		rs, err := readResultFile(f)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

func readResultFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series is one metric's values on one side, in run order.
type series struct {
	values []float64
	unit   string
	better string
}

func collect(rs []Result) map[string]map[string]*series {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	out := map[string]map[string]*series{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*series{}
		}
		for _, ms := range []Metrics{r.Metrics, r.Extra} {
			for name, m := range ms {
				if m.Better == "" {
					continue
				}
				s := out[r.Workload][name]
				if s == nil {
					s = &series{unit: m.Unit, better: m.Better}
					out[r.Workload][name] = s
				}
				s.values = append(s.values, m.Value)
			}
		}
	}
	return out
}

// compareResults renders one row per (workload, metric) with a bound, and
// reports whether any row regressed or stayed unresolved, or B failed any
// operation.
func compareResults(a, b []Result, bounds map[string]float64) ([]string, bool) {
	sa, sb := collect(a), collect(b)
	var workloads []string
	for wl := range sa {
		if sb[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	var rows []string
	bad := false
	for _, wl := range workloads {
		var names []string
		for name := range sa[wl] {
			if _, ok := bounds[name]; ok && sb[wl][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			x, y := sa[wl][name], sb[wl][name]
			// Set-up time is judged on its medians alone, as the
			// benchmark's own acceptance judges it: its run-to-run spread
			// is scheduling noise on sub-millisecond to millisecond work.
			v := judge(x.values, y.values, x.better, bounds[name], name != "setup_s")
			if v.verdict == "regressed" || v.verdict == "unresolved" {
				bad = true
			}
			rows = append(rows, fmt.Sprintf("%-11s %-15s %-6s %-30s %-30s %+7.1f%% %3d/%-3d %5.0f%%  %s",
				wl, name, x.unit, summarize(x.values), summarize(y.values), 100*v.change,
				v.wins, v.pairs, 100*bounds[name], v.verdict))
		}
	}
	for _, wl := range workloads {
		failed, attempted := 0, 0
		for _, r := range b {
			if r.Workload == wl {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		if failed > 0 {
			bad = true
			rows = append(rows, fmt.Sprintf("%-11s B failed %d of %d operations", wl, failed, attempted))
		}
	}
	return rows, bad
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// judgement is compare's reading of one metric.
type judgement struct {
	change      float64 // B's median relative to A's, signed so positive is better
	wins, pairs int
	verdict     string
}

// judge applies the benchmark's acceptance rules. B regressed when its
// median is worse than A's by more than bound. B improved when its median
// is better, it wins at least nine tenths of the pairs (run i of A against
// run i of B, ties counting for neither), and the medians differ by more
// than A's interquartile range. With spreadRule,
// when either side's spread exceeds the bound the metric is unresolved,
// unless every run of one side beats every run of the other.
func judge(a, b []float64, better string, bound float64, spreadRule bool) judgement {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	j := judgement{pairs: min(len(a), len(b))}
	if medA != 0 {
		j.change = sign * (medB - medA) / math.Abs(medA)
	}
	for i := 0; i < j.pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			j.wins++
		}
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		if m := median(xs); m != 0 {
			return (q3 - q1) / math.Abs(m)
		}
		return 0
	}
	separated := minOf(b) > maxOf(a) || maxOf(b) < minOf(a)
	q1A, q3A := quartiles(a)
	switch {
	case spreadRule && (spread(a) > bound || spread(b) > bound) && !separated:
		j.verdict = "unresolved"
	case -j.change > bound:
		j.verdict = "regressed"
	case j.change > 0 && j.pairs > 0 && float64(j.wins) >= 0.9*float64(j.pairs) && math.Abs(medB-medA) > q3A-q1A:
		j.verdict = "improved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
