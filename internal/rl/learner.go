package rl

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chiron/internal/mat"
)

// Pair couples a PPO learner with its rollout buffer and reward
// conditioning — one "policy+learner pair" of the unified agent stack.
// Chiron composes two (exterior and inner), the DRL-based baseline one.
type Pair struct {
	// Name identifies the pair in checkpoints ("exterior", "inner", ...).
	Name string
	// Agent is the PPO learner.
	Agent *PPO
	// Buf is the pair's rollout buffer.
	Buf *Buffer
}

// NewPair builds a pair with an empty buffer.
func NewPair(name string, agent *PPO) *Pair {
	return &Pair{Name: name, Agent: agent, Buf: &Buffer{}}
}

// Store scales t's reward by rewardScale and adds it to the buffer.
func (p *Pair) Store(t Transition) {
	t.Reward = t.Reward * rewardScale
	p.Buf.Add(t)
}

// Scheduler runs the end-of-episode learner work for a set of pairs: the
// learning-rate decay ticks, the MinSamples batching gate, the PPO updates
// (every pair's streams from one list), and the buffer resets. The two
// decay orders in the zoo are both modeled exactly because they are
// numerically distinct (the learning rate in force during an update
// differs):
//
//   - DecayFirst (Chiron, Algorithm 1 lines 17–27): every agent's decay
//     schedule advances each episode; when the gate buffer is still below
//     MinSamples the update is deferred and experience keeps accumulating
//     across episodes (the clipped importance ratio handles the slight
//     off-policy staleness).
//   - update-then-decay (the DRL-based baseline): nothing happens on an
//     episode that produced no samples; otherwise update, reset, and only
//     then tick the decay schedule.
type Scheduler struct {
	// Pairs lists the agents (Chiron: inner before exterior); update
	// errors are reported in this order. The last pair is the gate: its
	// buffer length is compared against MinSamples.
	Pairs []*Pair
	// MinSamples defers updates until the gate buffer holds at least this
	// many transitions, batching consecutive short episodes together. In
	// update-then-decay mode it is raised to 1, the "any samples at all"
	// gate.
	MinSamples int
	// DecayFirst selects the Chiron ordering above.
	DecayFirst bool

	// streams is flush's recycled stream list.
	streams []updateStream
}

// gateLen reports the gate (last) buffer's current length.
func (s *Scheduler) gateLen() int { return s.Pairs[len(s.Pairs)-1].Buf.Len() }

// EndEpisode runs the configured end-of-episode schedule once.
func (s *Scheduler) EndEpisode() error {
	if len(s.Pairs) == 0 {
		return fmt.Errorf("rl: scheduler with no pairs")
	}
	if s.DecayFirst {
		for _, p := range s.Pairs {
			p.Agent.EndEpisode()
		}
		if s.gateLen() < s.MinSamples {
			return nil
		}
		if err := s.flush(); err != nil {
			return err
		}
		return nil
	}
	need := s.MinSamples
	if need < 1 {
		need = 1
	}
	if s.gateLen() < need {
		return nil
	}
	if err := s.flush(); err != nil {
		return err
	}
	for _, p := range s.Pairs {
		p.Agent.EndEpisode()
	}
	return nil
}

// flush updates every pair with a non-empty buffer, then resets all
// buffers. It prepares the pairs side by side on the pool (runPool), then
// runs every prepared pair's critic and actor streams from one list
// (runStreams): the pairs share no parameters, optimizer state, scratch or
// buffers, so the prepares are independent and so are all the streams.
// The first error in pair order wins, and within a pair the critic's
// before the actor's.
func (s *Scheduler) flush() error {
	errs := make([]error, len(s.Pairs))
	runPool(len(s.Pairs), func(i int) {
		if p := s.Pairs[i]; p.Buf.Len() > 0 {
			errs[i] = p.Agent.prepare(p.Buf)
		}
	})
	s.streams = s.streams[:0]
	for i, p := range s.Pairs {
		if errs[i] == nil && p.Buf.Len() > 0 {
			s.streams = p.Agent.appendStreams(s.streams)
		}
	}
	runStreams(s.streams)
	for i, p := range s.Pairs {
		if errs[i] == nil && p.Buf.Len() > 0 {
			_, errs[i] = p.Agent.result()
		}
		if errs[i] != nil {
			return fmt.Errorf("rl: %s update: %w", p.Name, errs[i])
		}
	}
	for _, p := range s.Pairs {
		p.Buf.Reset()
	}
	return nil
}

// updateStream is one epoch loop of a prepared update: the agent's critic
// stream (critic set) or its actor stream, with its fixed cost estimate.
type updateStream struct {
	agent  *PPO
	critic bool
	cost   int
}

func (s updateStream) run() {
	if s.critic {
		s.agent.criticEpochs()
	} else {
		s.agent.actorEpochs()
	}
}

// runStreams sorts streams longest-first by cost, keeping the given order
// among equal costs, and runs each to completion on the pool, so the
// longest start first and the short ones fill in behind them. The streams
// touch disjoint mutable state, which makes the result bit-identical at
// any worker count and in any order.
func runStreams(streams []updateStream) {
	slices.SortStableFunc(streams, func(a, b updateStream) int { return cmp.Compare(b.cost, a.cost) })
	runPool(len(streams), func(i int) { streams[i].run() })
}

// runPool calls run(i) once for each i in [0, n). The caller and up to
// mat.Workers()−1 goroutines take the indices in ascending order; with one
// worker they run one after another on the caller, and -workers 1 stays
// truly serial. It is not mat.ParallelRange because each index is a whole
// piece of update work (a pair's prepare, a stream's epoch loop) rather
// than a band of one index axis.
func runPool(n int, run func(i int)) {
	workers := min(mat.Workers(), n)
	if workers <= 1 {
		for i := range n {
			run(i)
		}
		return
	}
	p := &pool{n: int64(n), run: run}
	p.wg.Add(workers - 1)
	for range workers - 1 {
		go p.worker()
	}
	p.work()
	p.wg.Wait()
}

// pool is one runPool call's shared state, in one allocation.
type pool struct {
	next atomic.Int64
	n    int64
	run  func(i int)
	wg   sync.WaitGroup
}

// work runs indices off the shared counter until none is left.
func (p *pool) work() {
	for i := p.next.Add(1) - 1; i < p.n; i = p.next.Add(1) - 1 {
		p.run(int(i))
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	p.work()
}
