package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chiron/internal/faults"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// crashPlan scripts training failures shared across the factory's fresh
// targets: failures[n] counts how many times training episode n crashes
// before succeeding. It lives outside the target, mirroring how a real
// crash kills the process but not the fault that caused it.
type crashPlan struct {
	failures map[int]int
}

// fakeTarget is a minimal supervise.Target: its whole training state is the
// episode counter, checkpointed through the unified rl.Checkpoint format so
// the corrupt/shape-mismatch error paths are the real ones.
type fakeTarget struct {
	episode int
	plan    *crashPlan
}

func (f *fakeTarget) Episode() int { return f.episode }

func (f *fakeTarget) Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error) {
	var out []mechanism.EpisodeResult
	for i := 0; i < episodes; i++ {
		next := f.episode + 1
		if f.plan != nil && f.plan.failures[next] > 0 {
			f.plan.failures[next]--
			return out, fmt.Errorf("fake: crash training episode %d", next)
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

func (f *fakeTarget) Checkpoint() (*rl.Checkpoint, error) {
	return &rl.Checkpoint{Mechanism: "fake", Nodes: 1, Episode: f.episode}, nil
}

func (f *fakeTarget) Restore(ck *rl.Checkpoint) error {
	if ck.Mechanism != "fake" {
		return fmt.Errorf("%w: checkpoint for mechanism %q, want \"fake\"", rl.ErrShapeMismatch, ck.Mechanism)
	}
	f.episode = ck.Episode
	return nil
}

func fakeFactory(plan *crashPlan) Factory {
	return func() (Target, error) {
		return &fakeTarget{plan: plan}, nil
	}
}

func TestNewValidation(t *testing.T) {
	dir := t.TempDir()
	ok := fakeFactory(nil)
	cases := []struct {
		name    string
		factory Factory
		cfg     Config
	}{
		{"nil factory", nil, Config{Dir: dir}},
		{"no dir", ok, Config{}},
		{"negative every", ok, Config{Dir: dir, Every: -1}},
		{"negative keep", ok, Config{Dir: dir, Keep: -2}},
		{"bad retry", ok, Config{Dir: dir, Retry: faults.Backoff{Base: -1}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.factory, tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	if _, err := New(ok, Config{Dir: filepath.Join(dir, "sub")}); err != nil {
		t.Fatalf("New with fresh subdirectory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("New did not create checkpoint directory: %v", err)
	}
}

func TestRecoverFresh(t *testing.T) {
	r, err := New(fakeFactory(nil), Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	target, skipped, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || target.Episode() != 0 {
		t.Fatalf("fresh recover: skipped %d, episode %d, want 0, 0", skipped, target.Episode())
	}
}

func TestRecoverSkipsCorruptAndMismatched(t *testing.T) {
	dir := t.TempDir()
	r, err := New(fakeFactory(nil), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// A valid checkpoint at episode 2, then two newer unusable files: a
	// shape-mismatched checkpoint (different mechanism tag) and a torn
	// JSON tail. Recovery must fall back past both.
	good := &fakeTarget{episode: 2}
	if err := r.Save(good); err != nil {
		t.Fatal(err)
	}
	if err := rl.SaveCheckpoint(r.checkpointPath(4), &rl.Checkpoint{Mechanism: "other", Episode: 4}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.checkpointPath(6), []byte(`{"mechanism":"fake","epis`), 0o644); err != nil {
		t.Fatal(err)
	}

	target, skipped, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped %d unusable checkpoints, want 2", skipped)
	}
	if target.Episode() != 2 {
		t.Errorf("recovered at episode %d, want 2", target.Episode())
	}
}

func TestRecoverAllCorruptStartsFresh(t *testing.T) {
	dir := t.TempDir()
	r, err := New(fakeFactory(nil), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		if err := os.WriteFile(r.checkpointPath(n), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	target, skipped, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 || target.Episode() != 0 {
		t.Fatalf("skipped %d, episode %d, want 2, 0", skipped, target.Episode())
	}
}

func TestCheckpointsIgnoreForeignEntries(t *testing.T) {
	dir := t.TempDir()
	r, err := New(fakeFactory(nil), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on a checkpoint name, a half-written temp, an
	// unpadded lookalike, and plain junk must all be invisible: none is a
	// recovery candidate, and none may abort recovery of the real file.
	if err := os.Mkdir(r.checkpointPath(9), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"ckpt-00000005.json.tmp", "ckpt-123.json", "README.md", "ckpt-.json"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f := &fakeTarget{episode: 4}
	if err := r.Save(f); err != nil {
		t.Fatal(err)
	}
	paths, err := r.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != r.checkpointPath(4) {
		t.Fatalf("Checkpoints() = %v, want only %s", paths, r.checkpointPath(4))
	}
	target, skipped, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || target.Episode() != 4 {
		t.Fatalf("skipped %d, episode %d, want 0, 4", skipped, target.Episode())
	}
}

func TestRunChunkedCheckpointing(t *testing.T) {
	dir := t.TempDir()
	r, err := New(fakeFactory(nil), Config{Dir: dir, Every: 2, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	target, report, err := r.Run(5, func(res mechanism.EpisodeResult) { seen = append(seen, res.Episode) })
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 5 {
		t.Errorf("final episode %d, want 5", target.Episode())
	}
	// Chunks of 2 with a short tail: checkpoints after episodes 2, 4, 5.
	if report.Checkpoints != 3 {
		t.Errorf("checkpoints %d, want 3", report.Checkpoints)
	}
	if report.ResumedFrom != 0 || report.Restarts != 0 || report.CorruptSkipped != 0 {
		t.Errorf("unexpected report %+v for a clean run", report)
	}
	if len(report.Episodes) != 5 {
		t.Fatalf("report has %d episodes, want 5", len(report.Episodes))
	}
	for i, res := range report.Episodes {
		if res.Episode != i+1 {
			t.Errorf("report episode[%d] = %d, want %d", i, res.Episode, i+1)
		}
	}
	if len(seen) != 5 {
		t.Errorf("callback saw %d episodes, want 5", len(seen))
	}
	// Keep=2 prunes the episode-2 file, leaving the two newest.
	paths, err := r.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || !strings.HasSuffix(paths[0], "ckpt-00000005.json") || !strings.HasSuffix(paths[1], "ckpt-00000004.json") {
		t.Errorf("retained checkpoints %v, want newest two (5, 4)", paths)
	}
}

func TestRunResumesFromExistingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := New(fakeFactory(nil), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	prior := &fakeTarget{episode: 3}
	if err := r.Save(prior); err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != 3 {
		t.Errorf("resumed from %d, want 3", report.ResumedFrom)
	}
	if target.Episode() != 5 || len(report.Episodes) != 2 {
		t.Errorf("episode %d with %d new results, want 5 with 2", target.Episode(), len(report.Episodes))
	}
}

func TestRunCrashRestartsWithBackoff(t *testing.T) {
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{3: 2}}
	var slept []time.Duration
	r, err := New(fakeFactory(plan), Config{
		Dir:   dir,
		Retry: faults.Backoff{Base: 2, Factor: 2, Max: 3, MaxRetries: 5},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 4 {
		t.Errorf("final episode %d, want 4", target.Episode())
	}
	if report.Restarts != 2 {
		t.Errorf("restarts %d, want 2", report.Restarts)
	}
	// Geometric pauses: Delay(1)=2s, Delay(2)=min(4,3)=3s.
	want := []time.Duration{2 * time.Second, 3 * time.Second}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff pauses %v, want %v", slept, want)
	}
	// The lineage holds each episode exactly once despite the replays.
	if len(report.Episodes) != 4 {
		t.Fatalf("report has %d episodes, want 4", len(report.Episodes))
	}
	for i, res := range report.Episodes {
		if res.Episode != i+1 {
			t.Errorf("report episode[%d] = %d, want %d", i, res.Episode, i+1)
		}
	}
}

func TestRunRestartBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{2: 100}}
	r, err := New(fakeFactory(plan), Config{
		Dir:   dir,
		Retry: faults.Backoff{MaxRetries: 3},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(4, nil)
	if err == nil {
		t.Fatal("Run succeeded past an unrecoverable crash")
	}
	if report.Restarts != 3 {
		t.Errorf("restarts %d, want 3", report.Restarts)
	}
	// Episode 1 checkpointed before the crash loop; the final target sits
	// there, and its result is the whole surviving lineage.
	if target == nil || target.Episode() != 1 {
		t.Errorf("final target at episode %v, want 1", target)
	}
	if len(report.Episodes) != 1 || report.Episodes[0].Episode != 1 {
		t.Errorf("report lineage %+v, want exactly episode 1", report.Episodes)
	}
}

func TestRunZeroRetryNeverRestarts(t *testing.T) {
	plan := &crashPlan{failures: map[int]int{1: 1}}
	r, err := New(fakeFactory(plan), Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := r.Run(2, nil)
	if err == nil {
		t.Fatal("zero-value Retry restarted after a crash")
	}
	if report.Restarts != 0 {
		t.Errorf("restarts %d, want 0", report.Restarts)
	}
}

func TestRunLineageTruncatedOnDeepFallback(t *testing.T) {
	// Crash at episode 5 with the newest checkpoint (episode 4) corrupted
	// while the supervisor pauses: recovery falls back to episode 2 and the
	// report's lineage must shrink to match before episodes 3-5 replay.
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{5: 1}}
	var r *Runner
	cfg := Config{
		Dir:   dir,
		Every: 2,
		Keep:  3,
		// Base must be positive so the restart pause (where the corruption
		// hook rides) actually fires.
		Retry: faults.Backoff{Base: 0.5, MaxRetries: 2},
	}
	cfg.Sleep = func(time.Duration) {
		if err := os.WriteFile(r.checkpointPath(4), []byte("torn"), 0o644); err != nil {
			t.Errorf("corrupt newest checkpoint: %v", err)
		}
	}
	var err error
	r, err = New(fakeFactory(plan), cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 6 {
		t.Errorf("final episode %d, want 6", target.Episode())
	}
	if report.Restarts != 1 || report.CorruptSkipped != 1 {
		t.Errorf("restarts %d corrupt-skipped %d, want 1 and 1", report.Restarts, report.CorruptSkipped)
	}
	if len(report.Episodes) != 6 {
		t.Fatalf("report has %d episodes, want 6", len(report.Episodes))
	}
	for i, res := range report.Episodes {
		if res.Episode != i+1 {
			t.Errorf("report episode[%d] = %d, want %d", i, res.Episode, i+1)
		}
	}
}

func TestRunInvalidTotal(t *testing.T) {
	r, err := New(fakeFactory(nil), Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Run(0, nil); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestRecoverableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrap: %w", rl.ErrCorruptCheckpoint), true},
		{fmt.Errorf("wrap: %w", rl.ErrShapeMismatch), true},
		{errors.New("disk on fire"), false},
		{os.ErrPermission, false},
	}
	for _, tc := range cases {
		if got := recoverable(tc.err); got != tc.want {
			t.Errorf("recoverable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRunGateStopFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stop := errors.New("stop requested")
	chunks := 0
	cfg := Config{Dir: dir, Every: 2, Gate: func() error {
		chunks++
		if chunks > 2 {
			return stop
		}
		return nil
	}}
	r, err := New(fakeFactory(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(10, nil)
	if !errors.Is(err, stop) {
		t.Fatalf("Run error = %v, want the gate sentinel", err)
	}
	// Two chunks of 2 ran before the gate tripped; the stop must have
	// flushed a final checkpoint at the live episode counter.
	if target.Episode() != 4 {
		t.Fatalf("stopped at episode %d, want 4", target.Episode())
	}
	if _, err := os.Stat(r.checkpointPath(4)); err != nil {
		t.Fatalf("final checkpoint not flushed: %v", err)
	}
	if report.Checkpoints != 3 {
		t.Errorf("report.Checkpoints = %d, want 3 (two chunk saves + stop flush)", report.Checkpoints)
	}

	// A fresh run resumes from exactly the flushed state.
	r2, err := New(fakeFactory(nil), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	target2, report2, err := r2.Run(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report2.ResumedFrom != 4 || target2.Episode() != 10 {
		t.Errorf("resumed from %d to %d, want 4 to 10", report2.ResumedFrom, target2.Episode())
	}
}
