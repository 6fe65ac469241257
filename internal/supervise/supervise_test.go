package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// crashPlan scripts training failures shared across the factory's fresh
// targets: failures[n] counts how many times training episode n crashes
// before succeeding. It lives outside the target, so a later Run sees the
// faults an earlier one consumed.
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
	r, err := New(fakeFactory(nil), Config{Dir: dir, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	target, report, err := r.Run(7, func(res mechanism.EpisodeResult) { seen = append(seen, res.Episode) })
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 7 {
		t.Errorf("final episode %d, want 7", target.Episode())
	}
	// Chunks of 2 with a short tail: checkpoints after episodes 2, 4, 6, 7.
	if report.Checkpoints != 4 {
		t.Errorf("checkpoints %d, want 4", report.Checkpoints)
	}
	if report.ResumedFrom != 0 || report.CorruptSkipped != 0 {
		t.Errorf("unexpected report %+v for a clean run", report)
	}
	if len(report.Episodes) != 7 {
		t.Fatalf("report has %d episodes, want 7", len(report.Episodes))
	}
	for i, res := range report.Episodes {
		if res.Episode != i+1 {
			t.Errorf("report episode[%d] = %d, want %d", i, res.Episode, i+1)
		}
	}
	if len(seen) != 7 {
		t.Errorf("callback saw %d episodes, want 7", len(seen))
	}
	// Keeping three prunes the episode-2 file.
	paths, err := r.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{r.checkpointPath(7), r.checkpointPath(6), r.checkpointPath(4)}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("retained checkpoints %v, want newest three %v", paths, want)
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

// TestRunCrashReturns: a training error ends the Run at once. The error
// comes back with the partial report of the checkpointed episodes, no
// target is returned, the crashed chunk is not saved, and the crash is
// tried exactly once.
func TestRunCrashReturns(t *testing.T) {
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{3: 100}}
	r, err := New(fakeFactory(plan), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(5, nil)
	if err == nil || !strings.Contains(err.Error(), "crash training episode 3") {
		t.Fatalf("Run error %v, want the episode-3 crash", err)
	}
	if target != nil {
		t.Errorf("Run returned the crashed target at episode %d", target.Episode())
	}
	if plan.failures[3] != 99 {
		t.Errorf("episode 3 crashed %d times in one Run, want 1", 100-plan.failures[3])
	}
	if report.Checkpoints != 2 || len(report.Episodes) != 2 || report.Episodes[1].Episode != 2 {
		t.Errorf("report %+v, want episodes 1 and 2 checkpointed", report)
	}
	paths, err := r.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] != r.checkpointPath(2) {
		t.Errorf("checkpoints %v, want %s newest of two", paths, r.checkpointPath(2))
	}
}

// TestRunResumesOnNextRun: recovery from a crash is the next Run, which
// resumes from the newest checkpoint and trains only the episodes left.
func TestRunResumesOnNextRun(t *testing.T) {
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{3: 1}}
	r, err := New(fakeFactory(plan), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Run(4, nil); err == nil {
		t.Fatal("Run survived the episode-3 crash")
	}
	var seen []int
	target, report, err := r.Run(4, func(res mechanism.EpisodeResult) { seen = append(seen, res.Episode) })
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 4 || report.ResumedFrom != 2 {
		t.Fatalf("resumed from %d to %d, want 2 to 4", report.ResumedFrom, target.Episode())
	}
	if len(report.Episodes) != 2 || report.Episodes[0].Episode != 3 || report.Episodes[1].Episode != 4 {
		t.Errorf("report episodes %+v, want 3 and 4", report.Episodes)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 4 {
		t.Errorf("callback saw episodes %v, want [3 4]", seen)
	}
}

// TestRunCorruptFallbackAcrossRuns: the newest checkpoint is torn between
// a crashed Run and the next one, which falls back to the previous file
// and replays from there.
func TestRunCorruptFallbackAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	plan := &crashPlan{failures: map[int]int{5: 1}}
	r, err := New(fakeFactory(plan), Config{Dir: dir, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Run(6, nil); err == nil {
		t.Fatal("Run survived the episode-5 crash")
	}
	if err := os.WriteFile(r.checkpointPath(4), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	target, report, err := r.Run(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target.Episode() != 6 || report.ResumedFrom != 2 || report.CorruptSkipped != 1 {
		t.Fatalf("episode %d resumed from %d with %d corrupt skipped, want 6, 2 and 1",
			target.Episode(), report.ResumedFrom, report.CorruptSkipped)
	}
	if len(report.Episodes) != 4 {
		t.Fatalf("report has %d episodes, want 4", len(report.Episodes))
	}
	for i, res := range report.Episodes {
		if res.Episode != i+3 {
			t.Errorf("report episode[%d] = %d, want %d", i, res.Episode, i+3)
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
