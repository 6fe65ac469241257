package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one measured value with its unit and direction.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"` // "lower" or "higher"; empty for descriptive values
	// Note qualifies the value, e.g. the percentile a tail was taken at when
	// the sample count could not support the named one.
	Note string `json:"note,omitempty"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name string, value float64, unit, better string) {
	m[name] = Metric{Value: value, Unit: unit, Better: better}
}

// Check is one output-correctness check.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Provenance records where and how a result was measured.
type Provenance struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// Result is one workload run: what the summary line reports plus
// everything needed to audit it.
type Result struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Seconds    float64    `json:"seconds"`
	Started    time.Time  `json:"started"`
	Provenance Provenance `json:"provenance"`
	// Reps counts the repetitions of the workload's fixed work that the
	// medians were taken over.
	Reps int `json:"reps"`
	// Raw holds the per-repetition values behind the reported medians.
	Raw map[string][]float64 `json:"raw"`
	// Metrics is the set the summary line carries: the end-to-end metrics
	// of BENCHMARK.json on an untraced run, its per-layer metrics on a
	// traced one.
	Metrics Metrics `json:"metrics"`
	// Extra holds the workload-specific metrics (serving latency, grid
	// scheduling, per-endpoint timings, ...) that not every workload has.
	Extra     Metrics `json:"extra"`
	Checks    []Check `json:"checks"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

func newResult(w string, opt options) *Result {
	return &Result{
		Workload:   w,
		Seed:       opt.seed,
		Trace:      opt.trace,
		Seconds:    opt.seconds,
		Started:    time.Now().UTC(),
		Provenance: provenance(),
		Raw:        map[string][]float64{},
		Metrics:    Metrics{},
		Extra:      Metrics{},
	}
}

// check records a correctness check; a failed check fails the run.
func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Correct reports whether every check passed and no operation failed.
func (r *Result) Correct() bool {
	if r.Failed > 0 || r.Attempted < 1 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// summaryLine is the one-line JSON summary printed last on stdout.
func (r *Result) summaryLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
}

// printHuman writes the readable report: every metric by name with its
// unit, then the checks.
func (r *Result) printHuman(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %d reps, %s %s/%s, %d CPUs, commit %s)\n",
		r.Workload, r.Seed, mode, r.Reps, r.Provenance.Go, r.Provenance.GOOS, r.Provenance.GOARCH,
		r.Provenance.CPUs, r.Provenance.Commit)
	printMetrics(w, "", r.Metrics)
	printMetrics(w, "extra ", r.Extra)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; digest %s\n", r.Attempted, r.Failed, r.Digest)
}

func printMetrics(w io.Writer, prefix string, m Metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		note := ""
		if v.Note != "" {
			note = "  (" + v.Note + ")"
		}
		fmt.Fprintf(w, "  %s%-32s %14.6g %s%s\n", prefix, name, v.Value, v.Unit, note)
	}
}

// appendJSONL appends v as one JSON line to path.
func appendJSONL(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func provenance() Provenance {
	return Provenance{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel reads the processor name on Linux, "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checked-out commit, or "unknown" outside a git work
// tree. It only looks in the working directory, never in its parents.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is this process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
