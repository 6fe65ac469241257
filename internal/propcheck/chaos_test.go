package propcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/supervise"
)

// chaosTarget is the surface the chaos harness drives: a supervisable
// mechanism whose episode driver accepts a kill hook.
type chaosTarget interface {
	supervise.Target
	SetRoundHook(func(episode, round int) error)
}

// errInjectedKill is the synthetic crash the kill hook raises.
var errInjectedKill = errors.New("chaos: injected kill")

// killPoint schedules one crash at (0-based episode, 1-based round).
type killPoint struct{ episode, round int }

// killPlan fires scheduled kills in order. Matching is "at or after" the
// scheduled point, so a kill lands even when its exact round never occurs
// (an episode that terminates early fires the kill at the next episode's
// first round instead). Consumed kills never refire, which is exactly a
// real crash: the fault struck once, and the restarted process continues
// past it.
type killPlan struct{ kills []killPoint }

func (p *killPlan) hook(episode, round int) error {
	if len(p.kills) == 0 {
		return nil
	}
	k := p.kills[0]
	if episode > k.episode || (episode == k.episode && round >= k.round) {
		p.kills = p.kills[1:]
		return fmt.Errorf("%w at episode %d round %d", errInjectedKill, episode, round)
	}
	return nil
}

// chaosBuilders constructs each learnable mechanism on the noise-free
// resume environment (see resumeEnv for why NoiseStd must be 0).
var chaosBuilders = []struct {
	name string
	make func(t *testing.T, seed int64) chaosTarget
}{
	{"chiron", func(t *testing.T, seed int64) chaosTarget {
		cfg := core.DefaultConfig()
		cfg.Exterior = smallPPO(cfg.Exterior)
		cfg.Inner = smallPPO(cfg.Inner)
		// Larger than one episode's rounds: kills land mid-batch and the
		// checkpoints must carry buffered experience across the crash.
		cfg.MinUpdateSamples = 48
		cfg.Seed = seed
		ch, err := core.New(resumeEnv(t, seed), cfg)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return ch
	}},
	{"drl-based", func(t *testing.T, seed int64) chaosTarget {
		cfg := baselines.DefaultDRLBasedConfig()
		cfg.PPO = smallPPO(cfg.PPO)
		cfg.Seed = seed
		d, err := baselines.NewDRLBased(resumeEnv(t, seed), cfg)
		if err != nil {
			t.Fatalf("NewDRLBased: %v", err)
		}
		return d
	}},
	{"greedy", func(t *testing.T, seed int64) chaosTarget {
		cfg := baselines.DefaultGreedyConfig()
		cfg.Epsilon = 0.5 // explore often so recovery exercises the ε stream
		cfg.Seed = seed
		g, err := baselines.NewGreedy(resumeEnv(t, seed), cfg)
		if err != nil {
			t.Fatalf("NewGreedy: %v", err)
		}
		return g
	}},
}

// finalDigest checkpoints the target and returns the exact bytes — the
// complete training state (weights, optimizer moments, carried buffers,
// RNG draw counts, episode counter) in the unified JSON format.
func finalDigest(t *testing.T, target supervise.Target) []byte {
	t.Helper()
	ck, err := target.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("marshal digest: %v", err)
	}
	return data
}

// runUntilDone models a process that is restarted after every crash: it
// calls Run until one returns without error, requiring each failed Run to
// end in an injected kill. It returns the finished target and how many
// Runs a kill ended.
func runUntilDone(t *testing.T, runner *supervise.Runner, total int) (supervise.Target, int) {
	t.Helper()
	for kills := 0; ; kills++ {
		target, _, err := runner.Run(total, nil)
		if err == nil {
			return target, kills
		}
		if !errors.Is(err, errInjectedKill) || target != nil {
			t.Fatalf("run %d: target %v, error %v, want a nil target and an injected kill", kills+1, target, err)
		}
		if kills > 8 {
			t.Fatalf("run %d still killed: %v", kills+1, err)
		}
	}
}

// TestChaosResumeBitIdentity is the chaos harness: for every learnable
// mechanism at seeds 1, 2, 3 it kills a training run twice at seed-random
// rounds (via the episode driver's round hook). Each kill ends a supervised
// Run and the harness calls Run again, as a restarted process would; that
// Run resumes from the newest checkpoint. The final run digest — the
// complete serialized training state — must be byte-identical to an
// uninterrupted run of the same seed. Any drift in RNG accounting, weight
// restoration, buffer carry, or episode counting fails the byte compare.
func TestChaosResumeBitIdentity(t *testing.T) {
	const total = 5
	for _, b := range chaosBuilders {
		b := b
		for _, seed := range []int64{1, 2, 3} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				t.Parallel()

				ref := b.make(t, seed)
				if _, err := ref.Train(total, nil); err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}
				want := finalDigest(t, ref)

				// Two seed-random kill points, in schedule order, early
				// enough that both are guaranteed to fire before the run
				// finishes.
				krng := rand.New(rand.NewSource(seed * 7919))
				e1 := krng.Intn(total - 2)
				e2 := e1 + 1 + krng.Intn(total-2-e1)
				plan := &killPlan{kills: []killPoint{
					{episode: e1, round: 1 + krng.Intn(4)},
					{episode: e2, round: 1 + krng.Intn(4)},
				}}

				runner, err := supervise.New(func() (supervise.Target, error) {
					target := b.make(t, seed)
					target.SetRoundHook(plan.hook)
					return target, nil
				}, supervise.Config{Dir: t.TempDir(), Every: 2})
				if err != nil {
					t.Fatalf("supervise.New: %v", err)
				}
				target, kills := runUntilDone(t, runner, total)
				if kills != 2 {
					t.Fatalf("%d Runs killed, want 2 (both kills must fire)", kills)
				}
				if target.Episode() != total {
					t.Fatalf("resumed run finished at episode %d, want %d", target.Episode(), total)
				}
				got := finalDigest(t, target)
				if !bytes.Equal(got, want) {
					t.Fatalf("final digest after kill+resume differs from the uninterrupted run\n"+
						"(%d vs %d bytes; any one-ULP weight or one-draw RNG drift fails this)",
						len(got), len(want))
				}
			})
		}
	}
}

// TestChaosCorruptCheckpointFallback extends the harness with storage
// damage: the newest checkpoint is torn in half after a kill ends the Run,
// so the next Run must fall back to the previous file and replay further —
// and the final digest must still match the uninterrupted run
// byte-for-byte.
func TestChaosCorruptCheckpointFallback(t *testing.T) {
	const (
		seed  = int64(1)
		total = 5
	)
	b := chaosBuilders[0] // chiron: the deepest state (two agents + buffers)

	ref := b.make(t, seed)
	if _, err := ref.Train(total, nil); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := finalDigest(t, ref)

	plan := &killPlan{kills: []killPoint{{episode: 3, round: 2}}}
	runner, err := supervise.New(func() (supervise.Target, error) {
		target := b.make(t, seed)
		target.SetRoundHook(plan.hook)
		return target, nil
	}, supervise.Config{Dir: t.TempDir(), Every: 1})
	if err != nil {
		t.Fatalf("supervise.New: %v", err)
	}
	if _, _, err := runner.Run(total, nil); !errors.Is(err, errInjectedKill) {
		t.Fatalf("first run: %v, want the injected kill", err)
	}
	// Tear the newest checkpoint so the next Run must fall back past it.
	paths, err := runner.Checkpoints()
	if err != nil || len(paths) == 0 {
		t.Fatalf("list checkpoints after the kill: %v (%d files)", err, len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatalf("read %s: %v", paths[0], err)
	}
	if err := os.WriteFile(paths[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate %s: %v", paths[0], err)
	}
	target, report, err := runner.Run(total, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if report.CorruptSkipped != 1 || report.ResumedFrom != 2 {
		t.Fatalf("corrupt-skipped %d, resumed from %d, want 1 and 2", report.CorruptSkipped, report.ResumedFrom)
	}
	got := finalDigest(t, target)
	if !bytes.Equal(got, want) {
		t.Fatalf("final digest after corrupt-fallback recovery differs from the uninterrupted run (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestChaosDeterministicCrashRecurs is the evidence that recovery belongs
// to the next Run and not to an in-process retry: a crash that the
// training itself reaches (here a round hook that always fails at the
// third episode's third round) ends the Run at once, and a second Run,
// resumed bit-exactly from the newest checkpoint, reaches the same error
// at the same (episode, round).
func TestChaosDeterministicCrashRecurs(t *testing.T) {
	const seed = int64(1)
	errCrash := errors.New("chaos: deterministic crash")
	type point struct{ episode, round int }
	var fired []point
	hook := func(episode, round int) error {
		if episode == 2 && round == 3 {
			fired = append(fired, point{episode, round})
			return errCrash
		}
		return nil
	}
	dir := t.TempDir()
	runner, err := supervise.New(func() (supervise.Target, error) {
		target := chaosBuilders[0].make(t, seed)
		target.SetRoundHook(hook)
		return target, nil
	}, supervise.Config{Dir: dir, Every: 1})
	if err != nil {
		t.Fatalf("supervise.New: %v", err)
	}
	for run := 1; run <= 2; run++ {
		target, report, err := runner.Run(5, nil)
		if !errors.Is(err, errCrash) || target != nil {
			t.Fatalf("run %d: target %v, error %v, want a nil target and the hook's error", run, target, err)
		}
		// The error names the failed episode by the mechanism's count, not
		// by its index within the one-episode training chunk.
		if !strings.Contains(err.Error(), "Chiron episode 3: ") {
			t.Fatalf("run %d: error %q does not name episode 3", run, err)
		}
		if len(fired) != run {
			t.Fatalf("run %d: the hook failed %d times in total, want %d (one per Run)", run, len(fired), run)
		}
		if wantFrom := 2 * (run - 1); report.ResumedFrom != wantFrom {
			t.Fatalf("run %d resumed from episode %d, want %d", run, report.ResumedFrom, wantFrom)
		}
		paths, err := runner.Checkpoints()
		if err != nil || len(paths) == 0 || paths[0] != filepath.Join(dir, "ckpt-00000002.json") {
			t.Fatalf("run %d: checkpoints %v (%v), want ckpt-00000002.json newest", run, paths, err)
		}
	}
	if fired[0] != fired[1] {
		t.Fatalf("the resumed Run crashed at %+v, the first at %+v", fired[1], fired[0])
	}
}
