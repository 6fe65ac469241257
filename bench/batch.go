package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// Set-up is timed in a short burst before every repetition, so setup_s, the
// median of all samples, spans the whole run instead of one moment of the
// host's load. A burst takes at least setupBurstMin samples and keeps going
// until setupBurst has been spent (up to setupBurstMax), which gives many
// samples even when one set-up takes well under a millisecond. Each sample
// starts from a collected heap, as a set-up in a fresh process would, so
// garbage from earlier samples does not bill it for collection work.
const (
	setupBurstMin = 3
	setupBurstMax = 40
	setupBurst    = 25 * time.Millisecond
)

// timeSetups times one burst of build calls and appends them to samples.
func timeSetups(samples []float64, build func() error) ([]float64, error) {
	start := time.Now()
	for n := 0; n < setupBurstMin || (n < setupBurstMax && time.Since(start) < setupBurst); n++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		samples = append(samples, since(t0))
	}
	return samples, nil
}

// minReps is the fewest repetitions of a workload's fixed work a run
// measures, however long they take; more run while time remains.
const minReps = 3

// system is one freshly built instance of a batch workload, positioned
// before its first episode.
type system struct {
	env *edgeenv.Env
	// mech is the production mechanism the untraced run drives.
	mech mechanism.Mechanism
	// actor is what the traced pass wraps: the mechanism itself for the
	// learners, a static actor posting Uniform's prices for the fleet.
	actor  mechanism.Actor
	agents []*rl.PPO
	// train and eval are the repetition's training and evaluation episode
	// counts.
	train, eval int
}

// episodeTiming is one played episode of an untraced repetition.
type episodeTiming struct {
	result    mechanism.EpisodeResult
	seconds   float64
	attempted int
}

// playPlain runs the repetition through the mechanism's own API — Train
// with a per-episode callback, then RunEpisode(false) per evaluation
// episode — timing every episode.
func (s *system) playPlain() ([]episodeTiming, error) {
	var out []episodeTiming
	last := time.Now()
	record := func(res mechanism.EpisodeResult) {
		out = append(out, episodeTiming{result: res, seconds: since(last), attempted: attemptedRounds(s.env)})
		last = time.Now()
	}
	if s.train > 0 {
		t, ok := s.mech.(mechanism.Trainable)
		if !ok {
			return nil, fmt.Errorf("%s is not trainable", s.mech.Name())
		}
		if _, err := t.Train(s.train, record); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.eval; i++ {
		res, err := s.mech.RunEpisode(false)
		if err != nil {
			return nil, err
		}
		record(res)
	}
	return out, nil
}

// batchWorkload is a workload whose repetition builds one system and plays
// a fixed number of episodes on it.
type batchWorkload struct {
	name  string
	build func(seed int64) (*system, error)
}

// convergenceSystem builds the setup of a convergence artifact (Fig. 3,
// Fig. 7a) with the given seed and training length.
func convergenceSystem(a experiment.Artifact, episodes int) func(seed int64) (*system, error) {
	return func(seed int64) (*system, error) {
		p, err := experiment.ConvergenceDefaults(a)
		if err != nil {
			return nil, err
		}
		env, err := experiment.BuildEnv(experiment.Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: p.Budget,
			Seed: seed, TimeWeight: p.TimeWeight})
		if err != nil {
			return nil, err
		}
		m, err := experiment.BuildMechanism(p.Mechanism, env, seed)
		if err != nil {
			return nil, err
		}
		actor, ok := m.(mechanism.Actor)
		if !ok {
			return nil, fmt.Errorf("%s does not expose its actor", m.Name())
		}
		return &system{env: env, mech: m, actor: actor, agents: learners(m), train: episodes}, nil
	}
}

// uniformFraction is the share of the fleet's saturation price the fleet
// workload's Uniform mechanism posts every round.
const uniformFraction = 0.5

// uniformPrices is the price vector baselines.NewUniform posts on env,
// computed with the same expression.
func uniformPrices(env *edgeenv.Env, fraction float64) []float64 {
	n := env.NumNodes()
	per := fraction * env.MaxTotalPrice() / float64(n)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = per
	}
	return prices
}

// staticActor posts one fixed price vector and learns nothing.
type staticActor struct{ prices []float64 }

func (a staticActor) Decide(bool) ([]float64, error)         { return a.prices, nil }
func (a staticActor) Observe(edgeenv.StepResult, bool) error { return nil }
func (a staticActor) Discard(bool)                           {}
func (a staticActor) EndEpisode(bool) error                  { return nil }

// fleetSystem builds a struct-of-arrays fleet of the given size on the
// MNIST-large accuracy surrogate, driven by Uniform. One probe round at
// Uniform's prices sizes the budget so every episode commits exactly
// rounds rounds and ends when the next one would overrun it.
func fleetSystem(nodes, rounds, episodes int) func(seed int64) (*system, error) {
	return func(seed int64) (*system, error) {
		fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(seed)), device.DefaultFleetSpec(nodes))
		if err != nil {
			return nil, err
		}
		newAccuracy := func() (accuracy.Model, error) {
			return accuracy.NewPresetCurve(rand.New(rand.NewSource(seed+1)), accuracy.PresetMNISTLarge, nodes)
		}
		probeAcc, err := newAccuracy()
		if err != nil {
			return nil, err
		}
		probe, err := edgeenv.New(edgeenv.DefaultFleetConfig(fleet, probeAcc, math.MaxFloat64/4))
		if err != nil {
			return nil, err
		}
		if err := probe.Reset(); err != nil {
			return nil, err
		}
		prices := uniformPrices(probe, uniformFraction)
		step, err := probe.Step(prices)
		if err != nil {
			return nil, fmt.Errorf("probe round: %w", err)
		}
		if step.Round.Payment <= 0 {
			return nil, fmt.Errorf("probe round paid %v", step.Round.Payment)
		}
		acc, err := newAccuracy()
		if err != nil {
			return nil, err
		}
		env, err := edgeenv.New(edgeenv.DefaultFleetConfig(fleet, acc, step.Round.Payment*(float64(rounds)+0.5)))
		if err != nil {
			return nil, err
		}
		u, err := baselines.NewUniform(env, uniformFraction)
		if err != nil {
			return nil, err
		}
		return &system{env: env, mech: u, actor: staticActor{prices: prices}, eval: episodes}, nil
	}
}

// repTiming is one untraced repetition.
type repTiming struct {
	episodes []episodeTiming
	runtime  runtimeCounters
}

func (r repTiming) results() []mechanism.EpisodeResult {
	out := make([]mechanism.EpisodeResult, len(r.episodes))
	for i, e := range r.episodes {
		out[i] = e.result
	}
	return out
}

func (r repTiming) attempted() int {
	n := 0
	for _, e := range r.episodes {
		n += e.attempted
	}
	return n
}

func (r repTiming) seconds() float64 {
	var s float64
	for _, e := range r.episodes {
		s += e.seconds
	}
	return s
}

// estimate is the wall time of one repetition with the host's interference
// taken out. Every repetition does identical work, and other tenants' load
// on the shared host only ever adds time, so part i of the work (an
// episode, or one grid) costs its fastest time across repetitions, and a
// repetition the sum of those. Slowdowns that last seconds to minutes move
// a median of the repetitions by 10–30% from run to run; they move this
// estimate only when they cover a part's every repetition.
func estimate(secondsByRep [][]float64) float64 {
	if len(secondsByRep) == 0 {
		return 0
	}
	var total float64
	for i := range secondsByRep[0] {
		col := make([]float64, len(secondsByRep))
		for r, s := range secondsByRep {
			col[r] = s[i]
		}
		total += minOf(col)
	}
	return total
}

// measureRuntime reports allocation and GC activity over f.
func measureRuntime(f func() error) (runtimeCounters, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return runtimeCounters{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:   float64(after.NumGC - before.NumGC),
	}, err
}

// plainRep builds a fresh system and plays one untraced repetition.
func plainRep(w batchWorkload, seed int64) (repTiming, error) {
	sys, err := w.build(seed)
	if err != nil {
		return repTiming{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var rep repTiming
	rep.runtime, err = measureRuntime(func() error {
		var err error
		rep.episodes, err = sys.playPlain()
		return err
	})
	if err != nil {
		return repTiming{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}

// tracedRep is one traced repetition: its ledger, episodes and tape.
type tracedRep struct {
	ledger  ledger
	pass    *tracedPass
	seconds []float64 // per-episode span durations
	rec     *recorder
}

// runTracedRep builds a fresh system and plays one repetition through the
// traced driver pass.
func runTracedRep(w batchWorkload, seed int64, epoch time.Time, label string) (tracedRep, error) {
	rec := newRecorder(epoch, label)
	t0 := time.Now()
	job := rec.open("job", 0, t0)
	sys, err := w.build(seed)
	if err != nil {
		return tracedRep{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rec.add("setup", job, t0, time.Now())
	pass := newTracedPass(rec, w.name, sys.env, sys.actor, sys.agents)
	if _, err := pass.play(job, sys.train, sys.eval); err != nil {
		return tracedRep{}, fmt.Errorf("%s traced: %w", w.name, err)
	}
	rec.close(job, time.Now())
	tr := tracedRep{pass: pass, rec: rec}
	tr.ledger.addRecorder(rec)
	tr.ledger.addPass(pass)
	for _, s := range rec.spans {
		if s.Name == "episode" {
			tr.seconds = append(tr.seconds, s.seconds())
		}
	}
	return tr, nil
}

// runBatch measures a batch workload: a set-up burst and an untraced
// repetition (and a traced one on a traced run), over and over until the
// measurement time is spent and at least minReps have run.
func runBatch(w batchWorkload, opt options, spans *spanSink) (*Result, error) {
	res := newResult(w.name, opt)
	build := func() error {
		_, err := w.build(opt.seed)
		return err
	}

	epoch := time.Now()
	deadline := epoch.Add(time.Duration(opt.seconds * float64(time.Second)))
	var setups []float64
	var plain []repTiming
	var traced []tracedRep
	for len(plain) < minReps || time.Now().Before(deadline) {
		var err error
		if setups, err = timeSetups(setups, build); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		rep, err := plainRep(w, opt.seed)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rep)
		if opt.trace {
			tr, err := runTracedRep(w, opt.seed, epoch, fmt.Sprintf("rep %d", len(traced)+1))
			if err != nil {
				return nil, err
			}
			traced = append(traced, tr)
		}
	}

	res.Reps = len(plain)
	want := digestEpisodes(plain[0].results())
	res.Digest = want
	var bySeconds [][]float64
	for _, rep := range plain {
		res.Attempted += len(rep.episodes)
		if digestEpisodes(rep.results()) != want {
			res.Failed += len(rep.episodes)
		}
		secs := make([]float64, len(rep.episodes))
		for j, e := range rep.episodes {
			secs[j] = e.seconds
		}
		bySeconds = append(bySeconds, secs)
		res.Raw["rep_seconds"] = append(res.Raw["rep_seconds"], rep.seconds())
	}
	res.check("repetitions agree", res.Failed == 0, "%d untraced repetitions, digest %s", len(plain), want)
	checkGolden(res, w.name, want)
	res.Raw["setup_seconds"] = setups

	attempted := plain[0].attempted()
	repSeconds := estimate(bySeconds)
	episodes := len(plain[0].episodes)
	res.Extra.set("episodes_per_s", float64(episodes)/repSeconds, "1/s", "higher")
	res.Extra.set("rep_episodes", float64(episodes), "count", "")
	res.Extra.set("rep_rounds", float64(attempted), "count", "")

	if !opt.trace {
		res.Metrics.set("setup_s", median(setups), "s", "lower")
		res.Metrics.set("rounds_per_s", float64(attempted)/repSeconds, "1/s", "higher")
		res.Metrics.set("peak_rss_mb", peakRSSMB(), "MB", "lower")
		setFailedFrac(res)
		return res, nil
	}

	var ledgers []ledger
	var tracedSeconds [][]float64
	for _, tr := range traced {
		res.Attempted += len(tr.pass.results)
		if digestEpisodes(tr.pass.results) != want {
			res.Failed += len(tr.pass.results)
		}
		ledgers = append(ledgers, tr.ledger)
		tracedSeconds = append(tracedSeconds, tr.seconds)
		spans.add(w.name, tr.rec)
	}
	res.check("traced equals untraced", res.Failed == 0, "%d traced repetitions, digest %s", len(traced), want)

	last := traced[len(traced)-1]
	twin, err := w.build(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("%s replay twin: %w", w.name, err)
	}
	stages, err := replayStages(twin.env, last.pass.actor.tape)
	res.check("stage replay", err == nil, "%d rounds replayed through the stage chain; %v", stages.attempted, errText(err))
	if err != nil {
		res.Failed++
	}
	layerMetrics(ledgers, stages, res)
	setRuntime(res.Metrics, plain[len(plain)-1].runtime, attempted)
	setOverhead(res.Metrics, estimate(tracedSeconds), repSeconds)
	setFailedFrac(res)
	return res, nil
}

func setFailedFrac(res *Result) {
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Extra.set("failed_frac", frac, "frac", "lower")
}

func errText(err error) string {
	if err == nil {
		return "all outcomes bit-identical"
	}
	return err.Error()
}
