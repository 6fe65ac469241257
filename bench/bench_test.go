package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"chiron/internal/accuracy"
	"chiron/internal/experiment"
	"chiron/internal/mechanism"
)

func smallSetup() experiment.Setup {
	return experiment.Setup{Preset: accuracy.PresetMNIST, Nodes: 3, Budget: 200, Seed: 3}
}

// The traced driver pass must not change what the mechanism computes:
// training through it equals Train, and its evaluation average equals
// mechanism.Evaluate, bit for bit, for every learner.
func TestTracedPassMatchesProductionPath(t *testing.T) {
	const train, eval = 4, 2
	for _, kind := range []experiment.MechanismKind{experiment.KindChiron, experiment.KindDRLBased, experiment.KindGreedy} {
		t.Run(kind.String(), func(t *testing.T) {
			build := func() mechanism.Mechanism {
				env, err := experiment.BuildEnv(smallSetup())
				if err != nil {
					t.Fatal(err)
				}
				m, err := experiment.BuildMechanism(kind, env, 3)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			plain := build()
			wantTrain, err := plain.(mechanism.Trainable).Train(train, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantEval, err := mechanism.Evaluate(plain, eval)
			if err != nil {
				t.Fatal(err)
			}

			m := build()
			rec := newRecorder(time.Now(), "test")
			pass := newTracedPass(rec, m.Name(), m.Env(), m.(mechanism.Actor), learners(m))
			gotEval, err := pass.play(0, train, eval)
			if err != nil {
				t.Fatal(err)
			}
			if digestEpisodes(pass.results[:train]) != digestEpisodes(wantTrain) {
				t.Errorf("traced training episodes differ from Train")
			}
			if digestEpisodes([]mechanism.EpisodeResult{gotEval}) != digestEpisodes([]mechanism.EpisodeResult{wantEval}) {
				t.Errorf("traced evaluation %+v, want %+v", gotEval, wantEval)
			}
			if pass.counter != nil {
				steps := pass.counter.Snapshot().ActorOpt.T
				if got, want := len(pass.updates), steps/pass.counter.Config().UpdateEpochs; got != want {
					t.Errorf("counted %d updates, optimizer took %d", got, want)
				}
			}
		})
	}
}

// The stage replay reproduces every taped round bit for bit, and notices
// when a taped record differs.
func TestStageReplayFaithful(t *testing.T) {
	env, err := experiment.BuildEnv(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.BuildMechanism(experiment.KindChiron, env, 3)
	if err != nil {
		t.Fatal(err)
	}
	pass := newTracedPass(newRecorder(time.Now(), "test"), m.Name(), env, m.(mechanism.Actor), learners(m))
	if _, err := pass.play(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	tp := pass.actor.tape
	replay := func() (stageTotals, error) {
		tw, err := experiment.BuildEnv(smallSetup())
		if err != nil {
			t.Fatal(err)
		}
		return replayStages(tw, tp)
	}
	st, err := replay()
	if err != nil {
		t.Fatalf("faithful replay failed: %v", err)
	}
	if st.attempted != sumInts(pass.attempted) {
		t.Errorf("replayed %d rounds, driver attempted %d", st.attempted, sumInts(pass.attempted))
	}
	if st.committed == 0 || st.seconds["respond"] <= 0 {
		t.Errorf("replay measured nothing: %+v", st)
	}
	// One ULP of drift in one taped payment must be caught.
	step := &tp.episodes[1][2]
	step.record.Payment = math.Nextafter(step.record.Payment, math.Inf(1))
	if _, err := replay(); err == nil {
		t.Errorf("replay accepted a record one ULP off")
	}
}

// Spans must account for nearly all of a traced repetition's time, even on
// tiny runs.
func TestTraceCoverage(t *testing.T) {
	for _, w := range []batchWorkload{
		{"train", convergenceSystem(experiment.Fig3, 3)},
		{"fleet", fleetSystem(2_000, 20, 2)},
	} {
		tr, err := runTracedRep(w, 5, time.Now(), "test")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var l ledger
		l.addRecorder(tr.rec)
		if cov := (l.setup + l.episodes) / l.jobs; cov < 0.95 {
			t.Errorf("%s: coverage %.3f, want >= 0.95", w.name, cov)
		}
		if self := l.episodes - l.decide - l.step - l.observe - l.endEpisode; self < 0 {
			t.Errorf("%s: layer spans exceed their episodes by %v s", w.name, -self)
		}
	}
}

// The fleet system's budget sizing makes every episode commit exactly the
// requested rounds and end on the next, discarded one.
func TestFleetEpisodesEndOnBudget(t *testing.T) {
	sys, err := fleetSystem(1_000, 12, 2)(9)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := sys.playPlain()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range eps {
		if e.result.Rounds != 12 || e.attempted != 13 {
			t.Errorf("episode %d: %d committed of %d attempted, want 12 of 13", i+1, e.result.Rounds, e.attempted)
		}
	}
}

func TestTail(t *testing.T) {
	if p, v, ok := tail(nil, 99); p != 0 || v != 0 || ok {
		t.Errorf("empty: got p%v=%v ok=%v", p, v, ok)
	}
	if p, v, ok := tail([]float64{4}, 99); p != 50 || v != 4 || ok {
		t.Errorf("one sample: got p%v=%v ok=%v, want the median without a tail", p, v, ok)
	}
	xs := make([]float64, 250) // p95 leaves 12 above, p98 only 5
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	if p, v, ok := tail(xs, 99); p != 95 || v != 238 || !ok {
		t.Errorf("250 samples: got p%v=%v ok=%v, want p95=238", p, v, ok)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if p, v, ok := tail(big, 99); p != 99 || v != 990 || !ok {
		t.Errorf("1000 samples: got p%v=%v ok=%v, want p99=990", p, v, ok)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 98, 102}, "higher", "unchanged"},
		{"faster", []float64{120, 121, 119, 120, 122, 118}, "higher", "improved"},
		{"slower beyond bound", []float64{80, 81, 79, 80, 82, 78}, "higher", "regressed"},
		{"slower within bound", []float64{95, 96, 94, 95, 97, 93}, "higher", "unchanged"},
		{"noisy", []float64{60, 140, 70, 130, 100, 100}, "higher", "unresolved"},
		{"lower is better", []float64{80, 81, 79, 80, 82, 78}, "lower", "improved"},
	} {
		if got := judge(base, c.b, c.better, 0.1, true).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(base, []float64{60, 140, 70, 130, 100, 100}, "higher", 0.1, false).verdict; got != "unchanged" {
		t.Errorf("noisy metric judged on medians alone: verdict %s, want unchanged", got)
	}
}

// A repetition's estimate sums each part's fastest time across
// repetitions, so a stall in one repetition's part does not count.
func TestEstimate(t *testing.T) {
	reps := [][]float64{{1.0, 2.0, 3.0}, {1.5, 1.0, 9.0}, {0.5, 4.0, 3.0}}
	if got := estimate(reps); got != 0.5+1.0+3.0 {
		t.Errorf("estimate = %v, want 4.5", got)
	}
	if got := estimate(nil); got != 0 {
		t.Errorf("estimate(nil) = %v, want 0", got)
	}
}

func TestCompareRejectsMixedRunLengths(t *testing.T) {
	if err := sameRunLength([]Result{{Seconds: 20}, {Seconds: 20}}); err != nil {
		t.Errorf("equal run lengths rejected: %v", err)
	}
	if err := sameRunLength([]Result{{Seconds: 20}, {Seconds: 15}}); err == nil {
		t.Errorf("runs of 20 s and 15 s accepted")
	}
}

// A short serve run against a freshly built chirond completes sessions
// whose digests match their in-process twins.
func TestServeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts chirond")
	}
	bin := filepath.Join(t.TempDir(), "chirond")
	if out, err := exec.Command("go", "build", "-o", bin, "chiron/cmd/chirond").CombinedOutput(); err != nil {
		t.Fatalf("build chirond: %v\n%s", err, out)
	}
	res, err := runServe(options{seed: 11, seconds: 1.5, chirond: bin}, &spanSink{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct() {
		t.Fatalf("serve run incorrect: checks %+v, %d of %d operations failed", res.Checks, res.Failed, res.Attempted)
	}
	for _, name := range []string{"setup_s", "rounds_per_s", "peak_rss_mb"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// Every run reports exactly the metrics BENCHMARK.json lists, with its
// units: the end-to-end set untraced, the per-layer set traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	w := batchWorkload{"tiny", convergenceSystem(experiment.Fig3, 2)}
	for _, c := range []struct {
		trace bool
		want  []entry
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		res, err := runBatch(w, options{seed: 5, seconds: 0.01, trace: c.trace}, &spanSink{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct() {
			t.Errorf("trace=%v: run incorrect: %+v", c.trace, res.Checks)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", c.trace, len(res.Metrics), len(c.want))
		}
		for _, e := range c.want {
			if m, ok := res.Metrics[e.Name]; !ok || m.Unit != e.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", c.trace, e.Name, m, e.Unit)
			}
		}
	}
}
