package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/edgeenv"
	"chiron/internal/market"
	"chiron/internal/mechanism"
	"chiron/internal/nn"
	"chiron/internal/rl"
	"chiron/internal/round"
)

// The traced run records spans around the calls this benchmark makes into
// each layer's public functions; nothing inside the program is
// instrumented. Spans nest job (one repetition or grid cell) → setup and
// episode → decide / step / observe / discard / end_episode, where "step"
// is the gap between Decide returning and Observe or Discard being entered:
// the environment's Step, as seen from the actor.

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; Parent 0 marks a root.
type span struct {
	Workload string `json:"workload,omitempty"`
	Job      string `json:"job,omitempty"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps the spans of one job in memory. It is confined to the
// goroutine running that job.
type recorder struct {
	epoch time.Time
	job   string
	spans []span
}

func newRecorder(epoch time.Time, job string) *recorder {
	return &recorder{epoch: epoch, job: job}
}

// open starts a span and returns its id; close ends it.
func (r *recorder) open(name string, parent int, start time.Time) int {
	r.spans = append(r.spans, span{Job: r.job, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) close(id int, end time.Time) { r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(name string, parent int, start, end time.Time) {
	r.close(r.open(name, parent, start), end)
}

// tracedActor wraps a mechanism.Actor, timing every call the episode
// driver makes into it and taping the prices and outcomes for the stage
// replay. It changes nothing the actor sees.
type tracedActor struct {
	inner   mechanism.Actor
	rec     *recorder
	tape    *tape
	episode int // span id of the episode in progress
	// stepStart is when the step gap began (Decide returned and the tape
	// was written).
	stepStart time.Time
	// lastEnd is the duration of the latest EndEpisode call.
	lastEnd time.Duration
	// bookkeeping is time the wrapper itself spent inside episode spans
	// (taping), kept out of every layer's share.
	bookkeeping time.Duration
	// stored counts training transitions stored since the last update.
	stored int
}

func (a *tracedActor) Decide(train bool) ([]float64, error) {
	t0 := time.Now()
	prices, err := a.inner.Decide(train)
	t1 := time.Now()
	a.rec.add("decide", a.episode, t0, t1)
	if err == nil {
		a.tape.offer(prices)
	}
	a.stepStart = time.Now()
	a.bookkeeping += a.stepStart.Sub(t1)
	return prices, err
}

func (a *tracedActor) Observe(res edgeenv.StepResult, train bool) error {
	t0 := time.Now()
	err := a.inner.Observe(res, train)
	t1 := time.Now()
	a.rec.add("step", a.episode, a.stepStart, t0)
	a.rec.add("observe", a.episode, t0, t1)
	a.tape.observe(res)
	if train {
		a.stored++
	}
	a.bookkeeping += time.Since(t1)
	return err
}

func (a *tracedActor) Discard(train bool) {
	t0 := time.Now()
	a.inner.Discard(train)
	t1 := time.Now()
	a.rec.add("step", a.episode, a.stepStart, t0)
	a.rec.add("discard", a.episode, t0, t1)
	a.tape.discard()
	a.bookkeeping += time.Since(t1)
}

func (a *tracedActor) EndEpisode(train bool) error {
	t0 := time.Now()
	err := a.inner.EndEpisode(train)
	t1 := time.Now()
	a.rec.add("end_episode", a.episode, t0, t1)
	a.lastEnd = t1.Sub(t0)
	return err
}

// update is one PPO update observed from outside the learner.
type update struct {
	samples int
	seconds float64 // the EndEpisode call that ran it
	flop    float64
}

// tracedPass plays episodes of one actor through its own mechanism.Driver
// with the traced wrapper in between. Training episodes use
// RunEpisode(true) exactly like Train, evaluation episodes
// RunEpisode(false) exactly like mechanism.Evaluate, so results are
// bit-identical to the untraced production path.
type tracedPass struct {
	rec   *recorder
	env   *edgeenv.Env
	actor *tracedActor
	drv   *mechanism.Driver
	// agents are the actor's PPO learners; counter is the smallest, whose
	// Adam step count is read between episodes to count updates exactly.
	agents  []*rl.PPO
	counter *rl.PPO
	lastT   int

	results   []mechanism.EpisodeResult
	attempted []int
	updates   []update
}

func newTracedPass(rec *recorder, name string, env *edgeenv.Env, actor mechanism.Actor, agents []*rl.PPO) *tracedPass {
	ta := &tracedActor{inner: actor, rec: rec, tape: &tape{}}
	p := &tracedPass{rec: rec, env: env, actor: ta, drv: mechanism.NewDriver(name, env, ta), agents: agents}
	for _, a := range agents {
		if p.counter == nil || numParams(a) < numParams(p.counter) {
			p.counter = a
		}
	}
	if p.counter != nil {
		p.lastT = p.counter.Snapshot().ActorOpt.T
	}
	return p
}

// episode plays one episode under parent and, outside its span, reads the
// learner's update counter.
func (p *tracedPass) episode(parent int, train bool) (mechanism.EpisodeResult, error) {
	p.actor.tape.newEpisode()
	p.actor.episode = p.rec.open("episode", parent, time.Now())
	res, err := p.drv.RunEpisode(train)
	p.rec.close(p.actor.episode, time.Now())
	if err != nil {
		return res, err
	}
	p.results = append(p.results, res)
	p.attempted = append(p.attempted, attemptedRounds(p.env))
	// An EndEpisode runs at most one update, on every agent at once.
	if p.counter != nil && train {
		if t := p.counter.Snapshot().ActorOpt.T; t != p.lastT {
			u := update{samples: p.actor.stored, seconds: p.actor.lastEnd.Seconds()}
			for _, a := range p.agents {
				u.flop += updateFlop(a, p.actor.stored)
			}
			p.updates = append(p.updates, u)
			p.actor.stored = 0
			p.lastT = t
		}
	}
	return res, nil
}

// play runs train training episodes then eval evaluation episodes and
// returns the evaluation average (zero when eval is 0).
func (p *tracedPass) play(parent, train, eval int) (mechanism.EpisodeResult, error) {
	for i := 0; i < train; i++ {
		if _, err := p.episode(parent, true); err != nil {
			return mechanism.EpisodeResult{}, err
		}
	}
	var agg mechanism.Aggregator
	for i := 0; i < eval; i++ {
		res, err := p.episode(parent, false)
		if err != nil {
			return mechanism.EpisodeResult{}, err
		}
		agg.Add(res)
	}
	if eval == 0 {
		return mechanism.EpisodeResult{}, nil
	}
	return agg.Result(), nil
}

// attemptedRounds counts the rounds the episode just played on env tried:
// committed and empty rounds advance the round index, and an episode that
// ended on budget exhaustion also tried the discarded round. Read it after
// the episode and before the next Reset.
func attemptedRounds(env *edgeenv.Env) int {
	return min(env.Round(), env.Config().MaxRounds)
}

// learners returns the PPO agents of the mechanisms that have them.
func learners(m mechanism.Mechanism) []*rl.PPO {
	switch v := m.(type) {
	case *core.Chiron:
		return []*rl.PPO{v.Exterior(), v.Inner()}
	case *baselines.DRLBased:
		return []*rl.PPO{v.Agent()}
	default:
		return nil
	}
}

// actorWidths lists the layer widths of an agent's policy mean network,
// input first.
func actorWidths(a *rl.PPO) []int {
	var w []int
	for _, l := range a.Policy().MeanNet().Layers() {
		if d, ok := l.(*nn.Dense); ok {
			if len(w) == 0 {
				w = append(w, d.In())
			}
			w = append(w, d.Out())
		}
	}
	return w
}

// criticWidths lists the critic's layer widths: the same trunk as the
// actor (rl.NewPPO) ending in one value output.
func criticWidths(a *rl.PPO) []int {
	w := []int{actorWidths(a)[0]}
	w = append(w, a.Config().Hidden...)
	return append(w, 1)
}

func numParams(a *rl.PPO) int {
	n := 0
	for _, w := range [][]int{actorWidths(a), criticWidths(a)} {
		for i := 0; i+1 < len(w); i++ {
			n += w[i]*w[i+1] + w[i+1]
		}
	}
	return n
}

// denseFlop is the GEMM work of one forward pass of an MLP with the given
// widths over n rows: 2·n·in·out per layer (a multiply and an add per
// weight per row). The backward pass's input-gradient GEMMs skip the first
// layer; firstLayer returns that term so a backward can be written as
// 2·forward − firstLayer.
func denseFlop(widths []int, n int) (forward, firstLayer float64) {
	for i := 0; i+1 < len(widths); i++ {
		f := 2 * float64(n) * float64(widths[i]) * float64(widths[i+1])
		forward += f
		if i == 0 {
			firstLayer = f
		}
	}
	return forward, firstLayer
}

// updateFlop estimates the floating-point work of one rl.PPO.Update over n
// samples, counting dense-layer GEMMs only; activations, the losses,
// gradient clipping and the Adam step are O(n·width) or O(parameters) and
// are left out. An update is the advantage pass (critic forwards over s and
// s′) plus, per epoch, the critic's two forwards and its backward and the
// actor's forward and backward. A backward computes weight gradients for
// every layer and input gradients for all but the first.
func updateFlop(a *rl.PPO, n int) float64 {
	if n <= 0 {
		return 0
	}
	cf, c0 := denseFlop(criticWidths(a), n)
	af, a0 := denseFlop(actorWidths(a), n)
	cBack, aBack := 2*cf-c0, 2*af-a0
	epoch := 2*cf + cBack + af + aBack
	return 2*cf + float64(a.Config().UpdateEpochs)*epoch
}

// tapeStep is one round as the driver pass saw it: the posted prices and
// how the environment disposed of them.
type tapeStep struct {
	prices    []float64
	empty     bool         // no participants; nothing committed
	discarded bool         // the episode-ending round the driver discarded
	record    market.Round // the committed record otherwise
}

// tape captures every round of a driver pass for the stage replay.
type tape struct {
	episodes [][]tapeStep
	last     []float64
}

func (t *tape) newEpisode() { t.episodes = append(t.episodes, nil) }

// offer tapes the prices of the round about to be stepped. A vector equal
// to the previous one is shared instead of copied, which keeps static
// mechanisms on large fleets at one copy.
func (t *tape) offer(prices []float64) {
	if !sameVec(prices, t.last) {
		t.last = slices.Clone(prices)
	}
	ep := &t.episodes[len(t.episodes)-1]
	*ep = append(*ep, tapeStep{prices: t.last})
}

func (t *tape) current() *tapeStep {
	ep := t.episodes[len(t.episodes)-1]
	return &ep[len(ep)-1]
}

func (t *tape) observe(res edgeenv.StepResult) {
	s := t.current()
	if res.Round.Participants == 0 {
		s.empty = true
		return
	}
	s.record = res.Round
}

func (t *tape) discard() { t.current().discarded = true }

// stageTotals is what a stage replay measured.
type stageTotals struct {
	seconds    map[string]float64 // per stage name
	attempted  int
	committed  int
	nodeRounds float64 // Σ fleet size × attempted rounds
}

func (s *stageTotals) add(o stageTotals) {
	if s.seconds == nil {
		s.seconds = map[string]float64{}
	}
	for k, v := range o.seconds {
		s.seconds[k] += v
	}
	s.attempted += o.attempted
	s.committed += o.committed
	s.nodeRounds += o.nodeRounds
}

// replayStages re-runs every taped round through a twin environment's
// stage chain, timing each round.Stage.Run. twin must be built exactly like
// the taped environment (same seed, fresh). Each round starts from the
// same round.State.Reset inputs Env.Step would use, episodes start with
// Env.Reset, and every replayed outcome must equal the taped one bit for
// bit.
func replayStages(twin *edgeenv.Env, t *tape) (stageTotals, error) {
	out := stageTotals{seconds: map[string]float64{}}
	stages := twin.Pipeline().Stages()
	acc := twin.Config().Accuracy
	maxRounds := twin.Config().MaxRounds
	n := twin.NumNodes()
	st := round.NewState(1, nil, 0, n)
	for e, ep := range t.episodes {
		if err := twin.Reset(); err != nil {
			return out, err
		}
		for k, step := range ep {
			st.Reset(k+1, step.prices, acc.Accuracy(), n)
			for _, s := range stages {
				t0 := time.Now()
				err := s.Run(st)
				out.seconds[s.Name()] += time.Since(t0).Seconds()
				if err != nil {
					return out, fmt.Errorf("replay episode %d round %d: %s: %w", e+1, k+1, s.Name(), err)
				}
				if st.Status != round.StatusPending {
					break
				}
			}
			out.attempted++
			out.nodeRounds += float64(n)
			if err := matchStep(st, step, k+1 == maxRounds); err != nil {
				return out, fmt.Errorf("replay episode %d round %d: %w", e+1, k+1, err)
			}
			if st.Status == round.StatusCommitted {
				out.committed++
			}
		}
	}
	return out, nil
}

// matchStep compares a replayed round with the taped one. atCap allows the
// driver's discard of an empty round at the round cap, which it cannot
// tell from budget exhaustion.
func matchStep(st *round.State, step tapeStep, atCap bool) error {
	switch {
	case step.discarded:
		if st.Status == round.StatusBudgetExhausted || (atCap && st.Status == round.StatusEmpty) {
			return nil
		}
	case step.empty:
		if st.Status == round.StatusEmpty {
			return nil
		}
	default:
		if st.Status != round.StatusCommitted {
			break
		}
		if !sameRound(st.Record, step.record) {
			return fmt.Errorf("replayed record differs from the driver pass")
		}
		return nil
	}
	return fmt.Errorf("replayed status %s, driver pass saw empty=%v discarded=%v", st.Status, step.empty, step.discarded)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVec(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameRound compares two round records field by field at exact bits.
func sameRound(a, b market.Round) bool {
	return a.Index == b.Index && a.Participants == b.Participants && a.Completed == b.Completed &&
		a.NumNodes == b.NumNodes && sameBits(a.Payment, b.Payment) && sameBits(a.Accuracy, b.Accuracy) &&
		sameBits(a.MaxTime, b.MaxTime) && sameBits(a.SumTime, b.SumTime) &&
		sameVec(a.Prices, b.Prices) && sameVec(a.Freqs, b.Freqs) && sameVec(a.Times, b.Times) &&
		slices.Equal(a.Outcomes, b.Outcomes)
}
