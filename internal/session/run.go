package session

import (
	"errors"

	"chiron/internal/mechanism"
	"chiron/internal/scenario"
	"chiron/internal/supervise"
)

// run executes the session's mode on its own goroutine: acquire a worker
// slot (queued sessions wait here), drive the episodes through the gate,
// and map the outcome onto a terminal state. spec is the latched spec —
// the config's spec plus any registry-derived churn script.
func (s *Session) run(spec *scenario.Spec) {
	if p := s.cfg.Pool; p != nil {
		if err := p.acquire(s.stopCh); err != nil {
			p.forfeit()
			s.finish(err)
			return
		}
		defer p.releaseWorker()
	}
	s.mu.Lock()
	// A pause or stop issued while queued stays in force; only an
	// untouched queued session proceeds straight to running.
	s.acquired = true
	if s.state == StateQueued {
		s.state = StateRunning
	}
	s.mu.Unlock()

	var err error
	switch {
	case s.cfg.Train != nil:
		err = s.runTrain()
	case s.cfg.Record != nil:
		err = s.runRecord(spec)
	default:
		err = s.runGrid(spec)
	}
	if err == nil {
		// A pause that lands after the last episode's gate holds the
		// finished run until Resume or Stop, so a paused session never
		// finishes on its own; a late Stop leaves the completed run done.
		_ = s.gate()
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

// runGrid runs the spec's full mechanism × budget grid through
// scenario.Run, with the session gate and episode observer threaded into
// every cell.
func (s *Session) runGrid(spec *scenario.Spec) error {
	res, err := scenario.Run(spec, s.cfg.Workers, scenario.CellHooks{
		Gate:    s.gate,
		Episode: s.observe,
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.result = res
	s.mu.Unlock()
	return nil
}

// runRecord records one cell to the configured trace writer, pausing and
// stopping at episode boundaries like the grid path. Events carry the
// recording's resolved cell, so a zero RecordConfig still reports the
// mechanism and budget that actually ran.
func (s *Session) runRecord(spec *scenario.Spec) error {
	run, err := scenario.StartRecord(spec, s.cfg.Record.Mechanism, s.cfg.Record.Budget, s.cfg.Record.Writer)
	if err != nil {
		return err
	}
	if err := run.Train(scenario.CellHooks{Gate: s.gate, Episode: s.observe}); err != nil {
		return err
	}
	for ep := 1; ep <= run.Episodes(); ep++ {
		if err := s.gate(); err != nil {
			return err
		}
		res, err := run.RecordEpisode(ep)
		if err != nil {
			return err
		}
		s.observe(run.Cell(), res, true)
	}
	rec, err := run.Finish()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.recorded = rec
	s.mu.Unlock()
	return nil
}

// runTrain drives a supervise.Runner with the session gate installed: a
// pause parks the runner between checkpoint chunks, and a stop makes the
// runner flush a final checkpoint before the gate sentinel surfaces.
func (s *Session) runTrain() error {
	cfg := s.cfg.Train.Supervise
	cfg.Gate = s.gate
	runner, err := supervise.New(s.cfg.Train.Factory, cfg)
	if err != nil {
		return err
	}
	_, report, err := runner.Run(s.cfg.Train.Episodes, func(res mechanism.EpisodeResult) {
		s.observe(scenario.Cell{}, res, false)
	})
	s.mu.Lock()
	s.report = report
	s.mu.Unlock()
	return err
}
