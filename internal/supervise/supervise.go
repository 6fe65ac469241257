// Package supervise wraps a learnable mechanism's training loop in the
// checkpointing a long-lived incentive server needs: periodic
// auto-checkpointing (atomic write-temp-then-rename through
// rl.SaveCheckpoint), and recovery that reloads the newest valid
// checkpoint — falling back past corrupt, torn or shape-mismatched files
// via the rl.ErrCorruptCheckpoint / rl.ErrShapeMismatch error paths — and
// resumes with CountingSource RNG accounting intact.
//
// Crash recovery is resume-on-start. A training error ends Run; the next
// Run (a restarted process, or a re-run of `chiron train
// -auto-checkpoint`) recovers from the newest valid checkpoint. There is
// no in-process retry: every learner resumes bit-exactly and the
// environment is deterministic, so replaying from a checkpoint inside the
// same process would only reach the same error at the same round.
//
// The recovery contract is exact resume: because every learnable mechanism
// serializes its complete training state (weights, optimizer moments,
// carried rollout buffers, RNG draw counts, episode counter) into the
// unified rl.Checkpoint, a run killed at any point and resumed by a later
// Run finishes in exactly the state the uninterrupted run reaches — the
// property internal/propcheck's chaos harness asserts byte-for-byte. The
// one caveat is inherited from the checkpoint format: environment-side RNG
// (comm jitter, availability) is not checkpointed, so exact resume holds
// for deterministic environments (the default).
package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"chiron/internal/mechanism"
	"chiron/internal/rl"
)

// Target is what the supervisor drives: a mechanism that can train and
// checkpoint (Chiron, DRL-based, Greedy — the static baselines have no
// state worth supervising).
type Target interface {
	mechanism.Trainable
	mechanism.Checkpointer
}

// Factory builds a fresh Target positioned at episode zero. Recover calls
// it once per checkpoint it tries — never reusing a target across restore
// attempts, because a restore that fails midway (a corrupt file whose
// shape pins parse but whose payload does not apply cleanly) may leave the
// target partially mutated.
type Factory func() (Target, error)

// Config parameterizes a Runner.
type Config struct {
	// Dir is the checkpoint directory (required; created if missing).
	Dir string
	// Every is the auto-checkpoint period in episodes (default 1).
	Every int
	// Gate, when set, is consulted before every training chunk. A
	// returned error stops the run early — Run flushes a final checkpoint
	// of the live target and returns the gate's error verbatim, so callers
	// can distinguish a requested stop (errors.Is on their sentinel) from
	// a training failure. `chiron train -auto-checkpoint` installs a gate
	// that fails once SIGINT or SIGTERM has arrived.
	Gate func() error
}

// keep bounds how many checkpoints are retained, oldest pruned first.
// Keeping more than one is what makes corrupt-fallback recovery possible
// at all.
const keep = 3

// Report summarizes one Run.
type Report struct {
	// Episodes holds the per-episode results of the checkpointed chunks:
	// one entry per episode trained after the recovery point and saved.
	// Episodes of a chunk that crashed are excluded (their learner state
	// was never checkpointed); the caller's callback still saw them.
	Episodes []mechanism.EpisodeResult
	// ResumedFrom is the episode count restored at start (0 = fresh run).
	ResumedFrom int
	// Checkpoints counts successful checkpoint saves.
	Checkpoints int
	// CorruptSkipped counts unusable checkpoint files skipped during
	// recovery (corrupt, truncated, or shape-mismatched).
	CorruptSkipped int
}

// Runner supervises one mechanism's training. It is not safe for
// concurrent use.
type Runner struct {
	factory Factory
	cfg     Config
}

// New validates cfg and builds a Runner over factory.
func New(factory Factory, cfg Config) (*Runner, error) {
	if factory == nil {
		return nil, fmt.Errorf("supervise: nil factory")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("supervise: no checkpoint directory")
	}
	if cfg.Every < 0 {
		return nil, fmt.Errorf("supervise: checkpoint period %d, want >= 0", cfg.Every)
	}
	if cfg.Every == 0 {
		cfg.Every = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: checkpoint directory: %w", err)
	}
	return &Runner{factory: factory, cfg: cfg}, nil
}

// checkpointPath names the checkpoint saved after episode n. The fixed
// width keeps lexical and numeric order identical.
func (r *Runner) checkpointPath(episode int) string {
	return filepath.Join(r.cfg.Dir, fmt.Sprintf("ckpt-%08d.json", episode))
}

// Checkpoints lists the directory's checkpoint files newest-first.
func (r *Runner) Checkpoints() ([]string, error) {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("supervise: list checkpoints: %w", err)
	}
	var names []string
	for _, e := range entries {
		// Foreign files — editor temps, half-written .tmp leftovers,
		// unpadded lookalikes, or a directory that happens to match the
		// pattern — must never become recovery candidates: a junk
		// "checkpoint" would abort recovery with an unrecoverable read
		// error instead of falling back to the real newest file.
		if e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%08d.json", &n); err == nil &&
			e.Name() == fmt.Sprintf("ckpt-%08d.json", n) {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(r.cfg.Dir, n)
	}
	return paths, nil
}

// recoverable reports whether a failed checkpoint load should fall back to
// an older file rather than abort recovery: corrupt JSON (a torn tail
// included), or a shape pin that does not match the freshly built target
// (a stale file from a different configuration).
func recoverable(err error) bool {
	return errors.Is(err, rl.ErrCorruptCheckpoint) || errors.Is(err, rl.ErrShapeMismatch)
}

// Recover builds a fresh target restored from the newest valid checkpoint
// in the directory. Unusable files are skipped oldest-ward; with no usable
// checkpoint at all the target starts fresh at episode zero. skipped
// counts the files passed over.
func (r *Runner) Recover() (t Target, skipped int, err error) {
	paths, err := r.Checkpoints()
	if err != nil {
		return nil, 0, err
	}
	for _, path := range paths {
		t, err := r.factory()
		if err != nil {
			return nil, skipped, fmt.Errorf("supervise: build target: %w", err)
		}
		ck, loadErr := rl.LoadCheckpoint(path)
		if loadErr == nil {
			loadErr = t.Restore(ck)
		}
		if loadErr == nil {
			return t, skipped, nil
		}
		if !recoverable(loadErr) {
			return nil, skipped, fmt.Errorf("supervise: load %s: %w", path, loadErr)
		}
		skipped++
	}
	t, err = r.factory()
	if err != nil {
		return nil, skipped, fmt.Errorf("supervise: build target: %w", err)
	}
	return t, skipped, nil
}

// Run supervises training until the target has completed total episodes:
// recover (or start fresh), train in checkpoint-period chunks and save
// after each chunk. It returns the final target alongside the Report. A
// training error ends the Run: the live target is neither saved nor
// returned, the error comes back with the partial report, and the next Run
// resumes from the newest valid checkpoint. A checkpoint save failure ends
// the Run the same way.
func (r *Runner) Run(total int, callback func(mechanism.EpisodeResult)) (Target, *Report, error) {
	if total <= 0 {
		return nil, nil, fmt.Errorf("supervise: run %d episodes, want > 0", total)
	}
	report := &Report{}
	target, skipped, err := r.Recover()
	if err != nil {
		return nil, report, err
	}
	report.CorruptSkipped = skipped
	report.ResumedFrom = target.Episode()

	for {
		done := target.Episode()
		if done >= total {
			return target, report, nil
		}
		if r.cfg.Gate != nil {
			if gateErr := r.cfg.Gate(); gateErr != nil {
				// Requested stop: flush the live target's state so a later
				// run resumes from exactly here, then surface the gate's
				// error unwrapped for the caller's sentinel check.
				if err := r.Save(target); err != nil {
					return target, report, err
				}
				report.Checkpoints++
				return target, report, gateErr
			}
		}
		chunk := min(r.cfg.Every, total-done)
		results, err := target.Train(chunk, callback)
		if err != nil {
			return nil, report, fmt.Errorf("supervise: training after episode %d: %w", done, err)
		}
		report.Episodes = append(report.Episodes, results...)
		if err := r.Save(target); err != nil {
			return target, report, err
		}
		report.Checkpoints++
	}
}

// Save checkpoints the target's current state at its episode counter
// (atomic write-temp-then-rename via rl.SaveCheckpoint) and prunes past the
// keep bound. Run calls it after every chunk; graceful-shutdown paths call
// it directly to flush a final checkpoint before exiting.
func (r *Runner) Save(t Target) error {
	ck, err := t.Checkpoint()
	if err == nil {
		err = rl.SaveCheckpoint(r.checkpointPath(t.Episode()), ck)
	}
	if err != nil {
		return fmt.Errorf("supervise: checkpoint: %w", err)
	}
	return r.prune()
}

// prune deletes the oldest checkpoints past the keep bound.
func (r *Runner) prune() error {
	paths, err := r.Checkpoints()
	if err != nil {
		return err
	}
	for _, path := range paths[min(len(paths), keep):] {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("supervise: prune %s: %w", path, err)
		}
	}
	return nil
}
