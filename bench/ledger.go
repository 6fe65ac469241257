package main

import (
	"fmt"
	"time"
)

// ledger totals one traced repetition (a rep of a batch workload, a whole
// grid pass, or the serve workload's in-process session) by layer.
type ledger struct {
	jobs, setup, episodes                          float64 // seconds
	decide, step, observe, endEpisode, bookkeeping float64 // seconds
	decideUS, stepUS                               []float64
	updates                                        []update
}

// addRecorder folds one recorder's spans in.
func (l *ledger) addRecorder(r *recorder) {
	for _, s := range r.spans {
		d := s.seconds()
		switch s.Name {
		case "job":
			l.jobs += d
		case "setup":
			l.setup += d
		case "episode":
			l.episodes += d
		case "decide":
			l.decide += d
			l.decideUS = append(l.decideUS, d*1e6)
		case "step":
			l.step += d
			l.stepUS = append(l.stepUS, d*1e6)
		case "observe", "discard":
			l.observe += d
		case "end_episode":
			l.endEpisode += d
		}
	}
}

// addPass folds in what a traced pass observed outside its spans.
func (l *ledger) addPass(p *tracedPass) {
	l.updates = append(l.updates, p.updates...)
	l.bookkeeping += p.actor.bookkeeping.Seconds()
}

// layerMetrics turns the traced repetitions and one stage replay into the
// per-layer metrics. Sums are medians across repetitions; latency
// percentiles pool every repetition's samples. runtime.* and
// trace.overhead come from untraced repetitions and are set by the caller.
func layerMetrics(reps []ledger, stages stageTotals, res *Result) {
	m := res.Metrics
	perRep := func(f func(l ledger) float64) float64 {
		vals := make([]float64, len(reps))
		for i, l := range reps {
			vals[i] = f(l)
		}
		return median(vals)
	}
	set := func(name, unit string, v float64) { m.set(name, v, unit, "") }

	var decideUS, stepUS, updateMS []float64
	var flop, updateSeconds float64
	var samples int
	for _, l := range reps {
		decideUS = append(decideUS, l.decideUS...)
		stepUS = append(stepUS, l.stepUS...)
		for _, u := range l.updates {
			updateMS = append(updateMS, u.seconds*1e3)
			flop += u.flop
			updateSeconds += u.seconds
			samples += u.samples
		}
	}
	set("mechanism.decide_s", "s", perRep(func(l ledger) float64 { return l.decide }))
	set("mechanism.decide_p50_us", "us", percentile(decideUS, 50))
	setTail(m, "mechanism.decide_p99_us", decideUS, 99, "us", "")
	set("mechanism.observe_s", "s", perRep(func(l ledger) float64 { return l.observe }))
	set("mechanism.driver_self_s", "s", perRep(func(l ledger) float64 {
		return l.episodes - l.decide - l.step - l.observe - l.endEpisode - l.bookkeeping
	}))
	set("edgeenv.step_s", "s", perRep(func(l ledger) float64 { return l.step }))
	set("edgeenv.step_p50_us", "us", percentile(stepUS, 50))
	set("rl.end_episode_s", "s", perRep(func(l ledger) float64 { return l.endEpisode }))
	set("rl.updates", "count", perRep(func(l ledger) float64 { return float64(len(l.updates)) }))
	spu, gflops := 0.0, 0.0
	if len(updateMS) > 0 {
		spu = float64(samples) / float64(len(updateMS))
		gflops = flop / 1e9 / updateSeconds
	}
	set("rl.samples_per_update", "count", spu)
	set("rl.update_gflop", "GFLOP", perRep(func(l ledger) float64 {
		var f float64
		for _, u := range l.updates {
			f += u.flop
		}
		return f / 1e9
	}))
	set("rl.update_gflops_per_s", "GFLOP/s", gflops)
	if len(updateMS) > 0 {
		res.Extra.set("rl.update_p50_ms", percentile(updateMS, 50), "ms", "lower")
		setTail(res.Extra, "rl.update_p99_ms", updateMS, 99, "ms", "lower")
	}

	var stageSum float64
	for _, name := range []string{"offer", "respond", "execute", "settle", "commit"} {
		set("round."+name+"_s", "s", stages.seconds[name])
		stageSum += stages.seconds[name]
	}
	nsPerNodeRound, commitFrac := 0.0, 0.0
	if stages.attempted > 0 {
		nsPerNodeRound = stageSum * 1e9 / stages.nodeRounds
		commitFrac = float64(stages.committed) / float64(stages.attempted)
	}
	set("round.ns_per_node_round", "ns", nsPerNodeRound)
	set("round.commit_frac", "frac", commitFrac)
	set("trace.coverage", "frac", perRep(func(l ledger) float64 {
		if l.jobs == 0 {
			return 0
		}
		return (l.setup + l.episodes) / l.jobs
	}))
}

// setTail stores the want-th percentile of xs under name, or the highest
// percentile the sample count supports with a note saying which.
func setTail(m Metrics, name string, xs []float64, want float64, unit, better string) {
	p, v, _ := tail(xs, want)
	mt := Metric{Value: v, Unit: unit, Better: better}
	if p != want {
		mt.Note = fmt.Sprintf("p%g of %d samples", p, len(xs))
	}
	m[name] = mt
}

// runtimeCounters is the allocation and GC activity of one repetition.
type runtimeCounters struct {
	allocBytes float64
	gcCycles   float64
}

// setRuntime stores the runtime.* metrics for one untraced repetition that
// attempted the given number of rounds.
func setRuntime(m Metrics, rc runtimeCounters, attempted int) {
	perRound := 0.0
	if attempted > 0 {
		perRound = rc.allocBytes / float64(attempted)
	}
	m.set("runtime.alloc_bytes_per_round", perRound, "B", "")
	m.set("runtime.gc_cycles", rc.gcCycles, "count", "")
}

// setOverhead stores traced wall / untraced wall − 1.
func setOverhead(m Metrics, traced, untraced float64) {
	v := 0.0
	if untraced > 0 {
		v = traced/untraced - 1
	}
	m.set("trace.overhead", v, "frac", "")
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
