package session

import (
	"errors"
	"testing"
	"time"

	"chiron/internal/mechanism"
	"chiron/internal/scenario"
)

// quickSpec is a small static-mechanism scenario that runs in milliseconds
// but still exercises the full grid path.
func quickSpec(name string, seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:    name,
		Dataset: "mnist",
		Seed:    seed,
		Classes: []scenario.DeviceClass{
			{Profile: "paper", Count: 3},
		},
		Budgets:      []float64{60, 90},
		Mechanisms:   []string{"uniform", "equal-time"},
		EvalEpisodes: 2,
		MaxRounds:    30,
	}
}

// pauseAt returns an OnEpisode hook that pauses the session at the given
// event sequence numbers — the deterministic way to park a session at an
// episode boundary (the pause lands before the worker reaches the gate).
func pauseAt(s **Session, seqs ...int) func(EpisodeEvent) {
	return func(ev EpisodeEvent) {
		for _, seq := range seqs {
			if ev.Seq == seq {
				(*s).Pause()
			}
		}
	}
}

// waitState polls until the session reaches want or the deadline passes.
func waitState(t *testing.T, s *Session, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session never reached %s (stuck at %s)", want, s.State())
}

func TestNewValidation(t *testing.T) {
	spec := quickSpec("validate", 3)
	invalid := quickSpec("", 3) // no name
	churny := quickSpec("churny", 3)
	churny.Churn = &scenario.ChurnSpec{Script: "-1@5"}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no spec", Config{}},
		{"invalid spec", Config{Spec: invalid}},
		{"negative workers", Config{Spec: spec, Workers: -1}},
		{"negative heartbeat", Config{Spec: spec, HeartbeatTimeout: -time.Second}},
		{"registry over declared churn", Config{Spec: churny, HeartbeatTimeout: time.Second}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

func TestGridMatchesCLIDigest(t *testing.T) {
	spec := quickSpec("grid-twin", 11)
	want, err := scenario.Run(spec, 1, scenario.CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Spec: quickSpec("grid-twin", 11), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v), want done", got, s.Err())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != want.Digest() {
		t.Fatalf("session digest %s != CLI digest %s", res.Digest(), want.Digest())
	}
	st := s.Snapshot()
	if st.Digest != want.Digest() || st.State != StateDone {
		t.Fatalf("snapshot %+v lacks terminal digest", st)
	}
	// 4 cells × (2 eval-averaged events? no: per-cell one eval event) —
	// static mechanisms emit exactly one eval event per cell.
	events := s.Episodes(0)
	if len(events) != 4 {
		t.Fatalf("observed %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i+1 || !ev.Eval {
			t.Fatalf("event %d = %+v, want Seq=%d Eval=true", i, ev, i+1)
		}
	}
	if tail := s.Episodes(3); len(tail) != 1 || tail[0].Seq != 4 {
		t.Fatalf("cursor Episodes(3) = %+v, want just seq 4", tail)
	}
	if s.Episodes(4) != nil {
		t.Fatal("cursor past the end should return nil")
	}
}

func TestPauseResumeKeepsDigest(t *testing.T) {
	spec := quickSpec("pause-twin", 23)
	want, err := scenario.Run(spec, 1, scenario.CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var s *Session
	s, err = New(Config{
		Spec:    quickSpec("pause-twin", 23),
		Workers: 1,
		OnEpisode: func(ev EpisodeEvent) {
			if ev.Seq == 2 {
				if err := s.Pause(); err != nil {
					t.Errorf("mid-run pause: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StatePaused)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v), want done", got, s.Err())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != want.Digest() {
		t.Fatalf("paused/resumed digest %s != uninterrupted %s", res.Digest(), want.Digest())
	}
}

// TestPauseAfterLastEpisodeHolds pauses on the last episode event, after
// the last gate: the finished run must hold in StatePaused until Resume,
// not finish behind a status that still reports the pause.
func TestPauseAfterLastEpisodeHolds(t *testing.T) {
	var last int
	want, err := scenario.Run(quickSpec("late-pause", 29), 1, scenario.CellHooks{
		Episode: func(scenario.Cell, mechanism.EpisodeResult, bool) { last++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var s *Session
	s, err = New(Config{Spec: quickSpec("late-pause", 29), Workers: 1, OnEpisode: pauseAt(&s, last)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StatePaused)
	select {
	case <-s.Done():
		t.Fatalf("paused session finished on its own: %s", s.State())
	case <-time.After(50 * time.Millisecond):
	}
	if got := len(s.Episodes(0)); got != last {
		t.Fatalf("%d episode events, want %d", got, last)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v), want done", got, s.Err())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != want.Digest() {
		t.Fatalf("late-paused digest %s != uninterrupted %s", res.Digest(), want.Digest())
	}
}

// TestLifecycleTable drives a serial four-cell grid session through
// every verb sequence; each quickSpec cell emits one evaluation event, so
// pausing at event n parks the worker at the gate before cell n+1.
func TestLifecycleTable(t *testing.T) {
	cases := []struct {
		name     string
		pauseSeq []int
		drive    func(t *testing.T, s *Session)
		want     State
	}{
		{"start-pause-resume-stop", []int{1, 2}, func(t *testing.T, s *Session) {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, StatePaused) // parked after cell 1
			if err := s.Resume(); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, StatePaused) // parked after cell 2
			s.Stop()
		}, StateStopped},
		{"pause-then-stop", []int{1}, func(t *testing.T, s *Session) {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, StatePaused)
			s.Stop()
		}, StateStopped},
		{"stop-before-start", nil, func(t *testing.T, s *Session) {
			s.Stop()
			if err := s.Start(); err == nil {
				t.Fatal("Start after Stop succeeded")
			}
		}, StateStopped},
		{"double-stop", []int{1}, func(t *testing.T, s *Session) {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, StatePaused)
			s.Stop()
			s.Stop()
			s.Stop()
		}, StateStopped},
		{"run-to-done", nil, func(t *testing.T, s *Session) {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
		}, StateDone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *Session
			var err error
			s, err = New(Config{
				Spec:      quickSpec("lifecycle", 5),
				Workers:   1,
				OnEpisode: pauseAt(&s, tc.pauseSeq...),
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(t, s)
			if got := s.Wait(); got != tc.want {
				t.Fatalf("final state %s (err %v), want %s", got, s.Err(), tc.want)
			}
			// Terminal states absorb every verb.
			if err := s.Start(); err == nil {
				t.Error("Start in terminal state succeeded")
			}
			if err := s.Pause(); err == nil {
				t.Error("Pause in terminal state succeeded")
			}
			if err := s.Resume(); err == nil {
				t.Error("Resume in terminal state succeeded")
			}
			s.Stop() // still a no-op, never a panic
		})
	}
}

// TestGridFailureState fails a grid session at run time: the session
// does not copy its spec, so invalidating the spec between New and Start
// makes scenario.Run refuse it, and the session must land in StateFailed
// with the cause in both Err and the snapshot.
func TestGridFailureState(t *testing.T) {
	spec := quickSpec("fail", 7)
	s, err := New(Config{Spec: spec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.EvalEpisodes = 0
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateFailed {
		t.Fatalf("final state %s, want failed", got)
	}
	if s.Err() == nil {
		t.Fatal("failed session has no error")
	}
	if st := s.Snapshot(); st.Error == "" || st.Digest != "" {
		t.Fatalf("snapshot of failed session %+v: want an error and no digest", st)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("failed session returned a result")
	}
}

func TestPoolAdmissionAndBackpressure(t *testing.T) {
	pool, err := NewPool(1, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pool.RetryAfter() != 2*time.Second {
		t.Fatalf("RetryAfter %v", pool.RetryAfter())
	}
	newGrid := func(hook func(EpisodeEvent)) (*Session, error) {
		return New(Config{Spec: quickSpec("pool", 13), Workers: 1, Pool: pool, OnEpisode: hook})
	}
	// s1 pauses after its first cell, holding the pool's only worker slot
	// while parked — the documented simplification.
	var s1 *Session
	s1, err = newGrid(pauseAt(&s1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newGrid(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newGrid(nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("third admission error %v, want ErrBusy", err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, StatePaused)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	// s1 holds the only worker (parked at its gate); s2 stays queued.
	time.Sleep(10 * time.Millisecond)
	if got := s2.State(); got != StateQueued {
		t.Fatalf("second session state %s, want queued", got)
	}
	// Pause then Resume returns it to the line, not to running: it still
	// holds no worker.
	if err := s2.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := s2.State(); got != StateQueued {
		t.Fatalf("second session state %s after pause/resume, want queued", got)
	}
	// Stopping the queued session abandons the line.
	s2.Stop()
	if got := s2.Wait(); got != StateStopped {
		t.Fatalf("queued stop: state %s", got)
	}
	// Its admission slot is back: a new session is admitted.
	s3, err := newGrid(nil)
	if err != nil {
		t.Fatalf("admission after queued stop: %v", err)
	}
	if err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Resume(); err != nil { // let s1 finish; its slot passes to s3
		t.Fatal(err)
	}
	if got := s1.Wait(); got != StateDone {
		t.Fatalf("first session state %s (err %v)", got, s1.Err())
	}
	if got := s3.Wait(); got != StateDone {
		t.Fatalf("third session state %s (err %v)", got, s3.Err())
	}
	// Everything released: a full admit round is possible again.
	for i := 0; i < 2; i++ {
		if err := pool.Admit(); err != nil {
			t.Fatalf("admit %d after drain: %v", i, err)
		}
	}
	if err := pool.Admit(); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-admit error %v, want ErrBusy", err)
	}
}

// TestPoolAdmitsBeforeValidating pins that New reserves its pool slot
// before it validates (and so compiles) the spec: a full pool refuses even
// a malformed spec with ErrBusy, and a spec refused by validation hands
// its slot back.
func TestPoolAdmitsBeforeValidating(t *testing.T) {
	pool, err := NewPool(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bad := quickSpec("bad", 1)
	bad.Budgets = []float64{-1}
	for i := 0; i < 3; i++ {
		if _, err := New(Config{Spec: bad, Workers: 1, Pool: pool}); err == nil || errors.Is(err, ErrBusy) {
			t.Fatalf("malformed spec %d on a free pool: error %v, want a validation error", i, err)
		}
	}
	s, err := New(Config{Spec: quickSpec("good", 1), Workers: 1, Pool: pool})
	if err != nil {
		t.Fatalf("valid spec after refused ones: %v", err)
	}
	if _, err := New(Config{Spec: bad, Workers: 1, Pool: pool}); !errors.Is(err, ErrBusy) {
		t.Fatalf("malformed spec on a full pool: error %v, want ErrBusy", err)
	}
	s.Stop()
	s.Wait()
	if err := pool.Admit(); err != nil {
		t.Fatalf("admit after the only session stopped: %v", err)
	}
}

// TestPoolSlotFreeOnceWaitReturns pins that a session frees its pool slots
// before its terminal transition: on a 1-worker, 0-queue pool, a New right
// after the previous session's Wait must be admitted, every time.
func TestPoolSlotFreeOnceWaitReturns(t *testing.T) {
	pool, err := NewPool(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s, err := New(Config{Spec: quickSpec("slot", int64(i)), Workers: 1, Pool: pool})
		if err != nil {
			t.Fatalf("session %d: New: %v", i, err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if got := s.Wait(); got != StateDone {
			t.Fatalf("session %d: state %s (err %v)", i, got, s.Err())
		}
	}
}
