package session

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"chiron/internal/faults"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/scenario"
	"chiron/internal/supervise"
	"chiron/internal/trace"
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

// stepTarget is a minimal supervise.Target whose whole training state is
// its episode counter; tests park it deterministically by pausing the
// session from the episode callback, which guarantees the worker holds at
// the next gate. crashAt scripts one training failure.
type stepTarget struct {
	episode int
	crashAt int // crash when training this episode (0 = never)
	crashed *bool
}

func (f *stepTarget) Episode() int { return f.episode }

func (f *stepTarget) Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error) {
	var out []mechanism.EpisodeResult
	for i := 0; i < episodes; i++ {
		next := f.episode + 1
		if f.crashAt == next && f.crashed != nil && !*f.crashed {
			*f.crashed = true
			return out, fmt.Errorf("steptarget: scripted crash at episode %d", next)
		}
		f.episode = next
		res := mechanism.EpisodeResult{Episode: next, Rounds: next}
		if callback != nil {
			callback(res)
		}
		out = append(out, res)
	}
	return out, nil
}

func (f *stepTarget) Checkpoint() (*rl.Checkpoint, error) {
	return &rl.Checkpoint{Mechanism: "step", Nodes: 1, Episode: f.episode}, nil
}

func (f *stepTarget) Restore(ck *rl.Checkpoint) error {
	if ck.Mechanism != "step" {
		return fmt.Errorf("%w: checkpoint for %q, want \"step\"", rl.ErrShapeMismatch, ck.Mechanism)
	}
	f.episode = ck.Episode
	return nil
}

func stepFactory(crashAt int, crashed *bool) supervise.Factory {
	return func() (supervise.Target, error) {
		return &stepTarget{crashAt: crashAt, crashed: crashed}, nil
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
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no mode", Config{}},
		{"two modes", Config{Spec: spec, Train: &TrainConfig{Factory: stepFactory(0, nil), Episodes: 1}}},
		{"record without spec", Config{Record: &RecordConfig{Writer: trace.NewWriter(&bytes.Buffer{})}}},
		{"record without writer", Config{Spec: spec, Record: &RecordConfig{}}},
		{"train without factory", Config{Train: &TrainConfig{Episodes: 1}}},
		{"train without episodes", Config{Train: &TrainConfig{Factory: stepFactory(0, nil)}}},
		{"negative workers", Config{Spec: spec, Workers: -1}},
		{"negative heartbeat", Config{Spec: spec, HeartbeatTimeout: -time.Second}},
		{"registry without spec", Config{Train: &TrainConfig{Factory: stepFactory(0, nil), Episodes: 1}, HeartbeatTimeout: time.Second}},
		{"foreign supervise gate", Config{Train: &TrainConfig{
			Factory: stepFactory(0, nil), Episodes: 1,
			Supervise: supervise.Config{Dir: t.TempDir(), Gate: func() error { return nil }},
		}}},
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

// record runs one cell of s through the StartRecord step API —
// training, then every evaluation episode — and streams its trace to tw.
func record(s *scenario.Spec, tw *trace.Writer) (*scenario.EpisodeSet, error) {
	run, err := scenario.StartRecord(s, "", 0, tw)
	if err != nil {
		return nil, err
	}
	for run.TrainRemaining() > 0 {
		if _, err := run.TrainEpisode(); err != nil {
			return nil, err
		}
	}
	for ep := 1; ep <= run.Episodes(); ep++ {
		if _, err := run.RecordEpisode(ep); err != nil {
			return nil, err
		}
	}
	return run.Finish()
}

// TestRecordMatchesCLIRecord records a trained cell through a session with
// a zero RecordConfig: the trace must match the step API's bytes, and every
// training and evaluation event must carry the resolved cell (the spec's
// first mechanism and budget), not the config's ""/0.
func TestRecordMatchesCLIRecord(t *testing.T) {
	spec := func() *scenario.Spec {
		s := quickSpec("rec-twin", 31)
		s.Mechanisms = []string{"greedy", "uniform"}
		s.TrainEpisodes = 2
		return s
	}
	var cliBuf bytes.Buffer
	want, err := record(spec(), trace.NewWriter(&cliBuf))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s, err := New(Config{
		Spec:   spec(),
		Record: &RecordConfig{Writer: trace.NewWriter(&buf)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v), want done", got, s.Err())
	}
	rec, err := s.Recorded()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Digest() != want.Digest() {
		t.Fatalf("session recording digest %s != CLI %s", rec.Digest(), want.Digest())
	}
	if !bytes.Equal(buf.Bytes(), cliBuf.Bytes()) {
		t.Fatal("session trace bytes differ from the CLI recording")
	}
	events := s.Episodes(0)
	if len(events) != 4 {
		t.Fatalf("%d events, want 2 training + 2 evaluation", len(events))
	}
	for _, ev := range events {
		if ev.Mechanism != want.Mechanism || ev.Budget != want.Budget {
			t.Errorf("event %d (eval=%v) labelled %q η=%v, want %q η=%v",
				ev.Seq, ev.Eval, ev.Mechanism, ev.Budget, want.Mechanism, want.Budget)
		}
	}
}

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
			waitState(t, s, StatePaused) // parked after episode 1
			if err := s.Resume(); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, StatePaused) // parked after episode 2
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
				OnEpisode: pauseAt(&s, tc.pauseSeq...),
				Train: &TrainConfig{
					Factory:   stepFactory(0, nil),
					Episodes:  3,
					Supervise: supervise.Config{Dir: t.TempDir(), Every: 1},
				},
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

func TestTrainStopFlushesAndResumes(t *testing.T) {
	dir := t.TempDir()
	var s *Session
	var err error
	s, err = New(Config{
		OnEpisode: pauseAt(&s, 2),
		Train: &TrainConfig{
			Factory:   stepFactory(0, nil),
			Episodes:  5,
			Supervise: supervise.Config{Dir: dir, Every: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The session parks at the boundary after episode 2; stop there.
	waitState(t, s, StatePaused)
	s.Stop()
	if got := s.Wait(); got != StateStopped {
		t.Fatalf("final state %s (err %v), want stopped", got, s.Err())
	}
	report, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Episodes) != 2 {
		t.Fatalf("stopped report has %d episodes, want 2", len(report.Episodes))
	}

	// A fresh session over the same directory resumes from the flushed
	// checkpoint and finishes the remaining episodes.
	s2, err := New(Config{Train: &TrainConfig{
		Factory:   stepFactory(0, nil),
		Episodes:  5,
		Supervise: supervise.Config{Dir: dir, Every: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Wait(); got != StateDone {
		t.Fatalf("resumed session state %s (err %v), want done", got, s2.Err())
	}
	report2, err := s2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if report2.ResumedFrom != 2 {
		t.Fatalf("resumed from %d, want 2", report2.ResumedFrom)
	}
}

func TestTrainResumeAfterCrash(t *testing.T) {
	crashed := false
	s, err := New(Config{Train: &TrainConfig{
		Factory:  stepFactory(3, &crashed),
		Episodes: 5,
		Supervise: supervise.Config{
			Dir: t.TempDir(), Every: 1,
			Retry: faults.Backoff{MaxRetries: 2},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v), want done", got, s.Err())
	}
	report, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 1 {
		t.Fatalf("restarts %d, want 1", report.Restarts)
	}
	if n := len(report.Episodes); n != 5 {
		t.Fatalf("final lineage has %d episodes, want 5", n)
	}
}

func TestTrainFailureState(t *testing.T) {
	crashed := false
	s, err := New(Config{Train: &TrainConfig{
		Factory:   stepFactory(2, &crashed),
		Episodes:  5,
		Supervise: supervise.Config{Dir: t.TempDir(), Every: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Zero-retry policy: the scripted crash is terminal.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateFailed {
		t.Fatalf("final state %s, want failed", got)
	}
	if s.Err() == nil {
		t.Fatal("failed session has no error")
	}
	if st := s.Snapshot(); st.Error == "" {
		t.Fatal("snapshot of failed session lacks the error")
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
	newTrain := func(hook func(EpisodeEvent)) (*Session, error) {
		return New(Config{Pool: pool, OnEpisode: hook, Train: &TrainConfig{
			Factory:   stepFactory(0, nil),
			Episodes:  2,
			Supervise: supervise.Config{Dir: t.TempDir(), Every: 1},
		}})
	}
	// s1 pauses after its first episode, holding the pool's only worker
	// slot while parked — the documented simplification.
	var s1 *Session
	s1, err = newTrain(pauseAt(&s1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newTrain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTrain(nil); !errors.Is(err, ErrBusy) {
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
	s3, err := newTrain(nil)
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

// TestPoolSlotFreeOnceWaitReturns pins that a session frees its pool slots
// before its terminal transition: on a 1-worker, 0-queue pool, a New right
// after the previous session's Wait must be admitted, every time.
func TestPoolSlotFreeOnceWaitReturns(t *testing.T) {
	pool, err := NewPool(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s, err := New(Config{Pool: pool, Train: &TrainConfig{
			Factory:   stepFactory(0, nil),
			Episodes:  1,
			Supervise: supervise.Config{Dir: t.TempDir(), Every: 1},
		}})
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
