package rl

import (
	"fmt"
	"sync"

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
// (concurrent across pairs), and the buffer resets. The two decay orders
// in the zoo are both modeled exactly because they are numerically
// distinct (the learning rate in force during an update differs):
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
// buffers. The pairs share no parameters, optimizer state or buffers, so
// their updates run concurrently; the first error in pair order wins.
func (s *Scheduler) flush() error {
	errs := make([]error, len(s.Pairs))
	updates := make([]func(), 0, len(s.Pairs))
	for i, p := range s.Pairs {
		if p.Buf.Len() == 0 {
			continue
		}
		updates = append(updates, func() {
			if _, err := p.Agent.Update(p.Buf); err != nil {
				errs[i] = fmt.Errorf("rl: %s update: %w", p.Name, err)
			}
		})
	}
	concurrently(updates...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, p := range s.Pairs {
		p.Buf.Reset()
	}
	return nil
}

// concurrently runs every stream to completion. With more than one worker
// configured (mat.Workers) the streams after the first each get a plain
// goroutine while the caller runs the first; otherwise they run one after
// another in order, so -workers 1 stays truly serial. The streams must
// touch disjoint mutable state, which makes the result bit-identical
// either way. It is not mat.ParallelRange because a stream is a whole
// closure rather than a band of one index axis, and wrapping each stream
// as a band would cost the update allocations it does not need.
func concurrently(streams ...func()) {
	if len(streams) < 2 || mat.Workers() <= 1 {
		for _, run := range streams {
			run()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(streams) - 1)
	for _, run := range streams[1:] {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	streams[0]()
	wg.Wait()
}
