// Package session is the serving layer's unit of work: one Session owns a
// compiled scenario grid, drives it through scenario.Run — the code path
// `chiron run -scenario` uses — and exposes the lifecycle a long-lived
// server needs: Start, Pause, Resume, Snapshot, Stop.
//
// The package enforces a strict split between the two clocks a server
// mixes:
//
//   - The simulation clock is episode and round counters plus seeded RNG
//     streams. Everything that touches a result flows from it, which is
//     why a server-hosted session's run digest is bit-identical to a CLI
//     run of the same spec and seed — the contract the propcheck property
//     pins at 200 trials.
//   - Wall-clock concerns — heartbeat deadlines, queue waits — may delay
//     when simulation happens but never what it computes. Live node
//     membership (Registry) is wall-clock only while a session holds in
//     StateNew; Start latches it into a deterministic faults.ChurnScript
//     applied uniformly to every episode, exactly as if the same script
//     had been passed to `chiron run -churn`.
//
// Pause and Stop act at episode boundaries: every grid cell consults a
// gate before each episode, so a paused session holds between episodes
// with all deterministic state intact, and a stopped one ends at the next
// boundary.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"chiron/internal/faults"
	"chiron/internal/mechanism"
	"chiron/internal/scenario"
)

// State is a session's lifecycle position.
type State int

// The session lifecycle. Transitions: New → Queued → Running ⇄ Paused →
// one of Done / Stopped / Failed. Stop is legal from every non-terminal
// state; terminal states are absorbing.
const (
	// StateNew is the hold phase: the session is admitted but not started,
	// and its live-node registry (if any) is still accepting registrations.
	StateNew State = iota
	// StateQueued means Start was called but the pool has no free worker
	// slot yet — wall-clock waiting that cannot affect results.
	StateQueued
	// StateRunning means episodes are executing.
	StateRunning
	// StatePaused means the session holds at the next episode boundary
	// until Resume or Stop.
	StatePaused
	// StateDone is terminal success: the result and digest are final.
	StateDone
	// StateStopped is terminal cancellation via Stop.
	StateStopped
	// StateFailed is terminal error; Err() holds the cause.
	StateFailed
)

// String implements fmt.Stringer with the wire names the HTTP API serves.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateDone:
		return "done"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrStopped is the gate sentinel a Stop injects; run paths surface it
// (possibly wrapped by the experiment scheduler) and the session maps it
// back to StateStopped rather than StateFailed.
var ErrStopped = errors.New("session: stopped")

// Clock abstracts wall-clock time so heartbeat-deadline tests are
// deterministic. It must never influence simulation results.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Config parameterizes a Session.
type Config struct {
	// Spec is the scenario whose full mechanism × budget grid the session
	// runs (required). The session deep-copies nothing: callers must not
	// mutate it after New.
	Spec *scenario.Spec
	// Workers bounds grid concurrency inside the session (1 = serial,
	// 0 = GOMAXPROCS). Results are identical at any setting.
	Workers int
	// OnEpisode, when non-nil, observes every episode event synchronously
	// from the worker that produced it.
	OnEpisode func(EpisodeEvent)
	// Clock supplies wall-clock time (nil = real time).
	Clock Clock
	// Pool, when non-nil, provides admission control: New reserves a
	// backlog slot (ErrBusy when full) and Start waits for a worker slot.
	Pool *Pool
	// HeartbeatTimeout arms a live-node Registry: nodes that register must
	// heartbeat at least this often during the hold phase or they are
	// latched as departing at their last declared round. Zero disables the
	// registry.
	HeartbeatTimeout time.Duration
}

// EpisodeEvent is one observed episode: a training episode or a final
// evaluation, tagged with the grid cell it came from and a session-wide
// sequence number for cursor-style streaming.
type EpisodeEvent struct {
	// Seq numbers events from 1 in observation order.
	Seq int `json:"seq"`
	// Mechanism and Budget identify the grid cell.
	Mechanism string  `json:"mechanism,omitempty"`
	Budget    float64 `json:"budget,omitempty"`
	// Eval marks a cell's final averaged evaluation rather than a single
	// training episode.
	Eval bool `json:"eval,omitempty"`
	// Result is the episode summary.
	Result mechanism.EpisodeResult `json:"result"`
}

// Status is a point-in-time session snapshot.
type Status struct {
	// State is the lifecycle position.
	State State `json:"-"`
	// StateName is State's wire form.
	StateName string `json:"state"`
	// Error carries the failure cause in StateFailed.
	Error string `json:"error,omitempty"`
	// Episodes counts observed episode events so far.
	Episodes int `json:"episodes"`
	// Cells counts the spec's grid cells.
	Cells int `json:"cells,omitempty"`
	// Digest is the final run digest, set only in StateDone.
	Digest string `json:"digest,omitempty"`
	// Churn is the latched churn script in its CLI text form ("" = none),
	// set once Start has latched the registry.
	Churn string `json:"churn,omitempty"`
	// Nodes counts currently-live registered nodes during the hold phase.
	Nodes int `json:"nodes,omitempty"`
}

// Session is one hosted run. All methods are safe for concurrent use.
type Session struct {
	cfg      Config
	clock    Clock
	registry *Registry

	mu       sync.Mutex
	cond     *sync.Cond
	state    State
	acquired bool // the run goroutine holds its worker slot (or needs none)
	err      error
	stopCh   chan struct{} // closed by Stop; unblocks queue waits
	done     chan struct{} // closed on terminal transition
	events   []EpisodeEvent
	churn    string // latched churn script (text form), set by Start
	result   *scenario.Result
	cells    int
}

// New validates cfg, reserves a pool slot when admission control is on,
// and returns a Session in StateNew. The slot is reserved before the spec
// is validated, because validating compiles the spec's environment: that
// work runs only for a session the pool has room for, and a refused
// spec hands its slot back.
func New(cfg Config) (_ *Session, err error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("session: a scenario spec is required")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("session: workers %d, want >= 0", cfg.Workers)
	}
	if cfg.HeartbeatTimeout < 0 {
		return nil, fmt.Errorf("session: heartbeat timeout %v, want >= 0", cfg.HeartbeatTimeout)
	}
	if cfg.Pool != nil {
		if err := cfg.Pool.Admit(); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				cfg.Pool.forfeit()
			}
		}()
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := cfg.Spec.Cells()
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	s := &Session{
		cfg:    cfg,
		clock:  clock,
		state:  StateNew,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		cells:  len(cells),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.HeartbeatTimeout > 0 {
		if cfg.Spec.Churn != nil {
			return nil, fmt.Errorf("session: scenario %s already declares churn; live registration would contradict it", cfg.Spec.Name)
		}
		s.registry = newRegistry(clock, cfg.HeartbeatTimeout, cfg.Spec.NumNodes(), cfg.Spec.EpisodeRounds())
	}
	return s, nil
}

// Registry returns the live-node registry, nil unless HeartbeatTimeout
// armed one. It accepts mutations only while the session is in StateNew.
func (s *Session) Registry() *Registry { return s.registry }

// Start latches the registry (live membership becomes a deterministic
// churn script merged into the spec), transitions New → Queued, and runs
// the session on its own goroutine. Calling Start twice, or after Stop,
// is an error.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateNew {
		return fmt.Errorf("session: start in state %s", s.state)
	}
	spec := s.cfg.Spec
	if s.registry != nil {
		script, err := s.registry.Latch()
		if err != nil {
			return err
		}
		if text := faults.FormatChurnScript(script); text != "" {
			// Merge as the CLI text form: the running spec is now literally
			// the original plus `-churn "<text>"`, the session's CLI twin.
			merged := *spec
			merged.Churn = &scenario.ChurnSpec{Script: text}
			if err := merged.Validate(); err != nil {
				return err
			}
			spec = &merged
			s.churn = text
		}
	}
	s.state = StateQueued
	go s.run(spec)
	return nil
}

// Pause requests a hold at the next episode boundary, or, after the last
// episode, before the session finishes. Legal while queued, running, or
// already paused; a no-op in the latter case.
func (s *Session) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateQueued, StateRunning, StatePaused:
		s.state = StatePaused
		return nil
	default:
		return fmt.Errorf("session: pause in state %s", s.state)
	}
}

// Resume lifts a pause: the session returns to running once it holds a
// worker slot, and to queued while it still waits for one. A no-op while
// queued or running.
func (s *Session) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StatePaused:
		s.state = StateQueued
		if s.acquired {
			s.state = StateRunning
		}
		s.cond.Broadcast()
		return nil
	case StateQueued, StateRunning:
		return nil
	default:
		return fmt.Errorf("session: resume in state %s", s.state)
	}
}

// Stop cancels the session: a never-started session terminates
// immediately; a queued or running one stops at the next episode
// boundary. Stop is idempotent — a
// second Stop, or a Stop after Done, is a no-op. Stop does not wait; use
// Wait.
func (s *Session) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stopCh:
		return // already stopping
	default:
	}
	switch s.state {
	case StateNew:
		s.state = StateStopped
		close(s.stopCh)
		if s.cfg.Pool != nil {
			// The run goroutine never starts, so the admission slot is
			// returned here.
			s.cfg.Pool.forfeit()
		}
		s.finishLocked()
	case StateQueued, StateRunning, StatePaused:
		// The gate observes the closed channel; a paused session is also
		// woken so it can exit through the gate.
		close(s.stopCh)
		s.cond.Broadcast()
	}
}

// Wait blocks until the session reaches a terminal state and returns it.
func (s *Session) Wait() State {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done returns a channel closed on terminal transition.
func (s *Session) Done() <-chan struct{} { return s.done }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the failure cause in StateFailed, else nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Snapshot returns a point-in-time status.
func (s *Session) Snapshot() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		State:     s.state,
		StateName: s.state.String(),
		Episodes:  len(s.events),
		Cells:     s.cells,
		Churn:     s.churn,
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	if s.state == StateDone {
		st.Digest = s.result.Digest()
	}
	if s.registry != nil && s.state == StateNew {
		st.Nodes = s.registry.Live()
	}
	return st
}

// Result returns the grid result once the session is Done.
func (s *Session) Result() (*scenario.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.result == nil {
		return nil, fmt.Errorf("session: no result in state %s", s.state)
	}
	return s.result, nil
}

// Episodes returns the episode events with Seq > since, the cursor form
// the HTTP metrics endpoint streams.
func (s *Session) Episodes(since int) []EpisodeEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= len(s.events) {
		return nil
	}
	out := make([]EpisodeEvent, len(s.events)-since)
	copy(out, s.events[since:])
	return out
}

// observe appends one episode event and forwards it to the config hook.
func (s *Session) observe(cell scenario.Cell, res mechanism.EpisodeResult, eval bool) {
	s.mu.Lock()
	ev := EpisodeEvent{
		Seq:       len(s.events) + 1,
		Mechanism: cell.Mechanism,
		Budget:    cell.Budget,
		Eval:      eval,
		Result:    res,
	}
	s.events = append(s.events, ev)
	s.mu.Unlock()
	if s.cfg.OnEpisode != nil {
		s.cfg.OnEpisode(ev)
	}
}

// gate is the episode-boundary control point every grid cell consults: it
// returns ErrStopped once Stop has been called and blocks while paused.
func (s *Session) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case <-s.stopCh:
			return ErrStopped
		default:
		}
		if s.state != StatePaused {
			return nil
		}
		s.cond.Wait()
	}
}

// finishLocked closes done exactly once. Callers hold s.mu.
func (s *Session) finishLocked() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.cond.Broadcast()
}
