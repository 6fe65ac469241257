package session

import (
	"errors"

	"chiron/internal/scenario"
)

// run executes the session on its own goroutine: acquire a worker slot
// (queued sessions wait here), run the spec's full grid through
// scenario.Run with the session gate and episode observer threaded into
// every cell, and map the outcome onto a terminal state. spec is the
// latched spec — the config's spec plus any registry-derived churn script.
// The pool slots are freed before the terminal transition, so a caller
// woken by Wait can be admitted at once.
func (s *Session) run(spec *scenario.Spec) {
	p := s.cfg.Pool
	if p != nil {
		if err := p.acquire(s.stopCh); err != nil {
			p.forfeit()
			s.finish(err)
			return
		}
	}
	s.mu.Lock()
	// A pause or stop issued while queued stays in force; only an
	// untouched queued session proceeds straight to running.
	s.acquired = true
	if s.state == StateQueued {
		s.state = StateRunning
	}
	s.mu.Unlock()

	res, err := scenario.Run(spec, s.cfg.Workers, scenario.CellHooks{
		Gate:    s.gate,
		Episode: s.observe,
	})
	if err == nil {
		s.mu.Lock()
		s.result = res
		s.mu.Unlock()
		// A pause that lands after the last episode's gate holds the
		// finished run until Resume or Stop, so a paused session never
		// finishes on its own; a late Stop leaves the completed run done.
		_ = s.gate()
	}
	if p != nil {
		p.releaseWorker()
	}
	s.finish(err)
}

// finish performs the terminal transition. The experiment scheduler wraps
// job errors, so the stop sentinel is matched with errors.Is.
func (s *Session) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.state = StateDone
	case errors.Is(err, ErrStopped):
		s.state = StateStopped
	default:
		s.state = StateFailed
		s.err = err
	}
	s.finishLocked()
}
