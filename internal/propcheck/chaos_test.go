package propcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/faults"
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
// real crash: the fault struck once, and the recovered process continues
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

// TestChaosResumeBitIdentity is the chaos harness: for every learnable
// mechanism at seeds 1, 2, 3 it kills a training run at seed-random rounds
// (via the episode driver's round hook), recovers each crash through the
// supervisor's checkpoint machinery, and requires the final run digest —
// the complete serialized training state — to be byte-identical to an
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
				}, supervise.Config{
					Dir:   t.TempDir(),
					Every: 2,
					Keep:  3,
					Retry: faults.Backoff{MaxRetries: 4},
					Sleep: func(time.Duration) {},
				})
				if err != nil {
					t.Fatalf("supervise.New: %v", err)
				}
				target, report, err := runner.Run(total, nil)
				if err != nil {
					t.Fatalf("supervised run: %v", err)
				}
				if report.Restarts != 2 {
					t.Fatalf("restarts %d, want 2 (both kills must fire)", report.Restarts)
				}
				if target.Episode() != total {
					t.Fatalf("recovered run finished at episode %d, want %d", target.Episode(), total)
				}
				got := finalDigest(t, target)
				if !bytes.Equal(got, want) {
					t.Fatalf("final digest after kill+recover differs from the uninterrupted run\n"+
						"(%d vs %d bytes; any one-ULP weight or one-draw RNG drift fails this)",
						len(got), len(want))
				}
			})
		}
	}
}

// TestChaosCorruptCheckpointFallback extends the harness with storage
// damage: the newest checkpoint is torn in half while the supervisor backs
// off after a kill, so recovery must fall back to the previous file and
// replay further — and the final digest must still match the uninterrupted
// run byte-for-byte.
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
	var runner *supervise.Runner
	cfg := supervise.Config{
		Dir:   t.TempDir(),
		Every: 1,
		Keep:  4,
		Retry: faults.Backoff{Base: 0.1, MaxRetries: 2},
	}
	cfg.Sleep = func(time.Duration) {
		// Ride the restart pause: tear the newest checkpoint so recovery
		// must fall back past it.
		paths, err := runner.Checkpoints()
		if err != nil || len(paths) == 0 {
			t.Errorf("list checkpoints during backoff: %v (%d files)", err, len(paths))
			return
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Errorf("read %s: %v", paths[0], err)
			return
		}
		if err := os.WriteFile(paths[0], data[:len(data)/2], 0o644); err != nil {
			t.Errorf("truncate %s: %v", paths[0], err)
		}
	}
	runner, err := supervise.New(func() (supervise.Target, error) {
		target := b.make(t, seed)
		target.SetRoundHook(plan.hook)
		return target, nil
	}, cfg)
	if err != nil {
		t.Fatalf("supervise.New: %v", err)
	}
	target, report, err := runner.Run(total, nil)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if report.Restarts != 1 || report.CorruptSkipped != 1 {
		t.Fatalf("restarts %d corrupt-skipped %d, want 1 and 1", report.Restarts, report.CorruptSkipped)
	}
	got := finalDigest(t, target)
	if !bytes.Equal(got, want) {
		t.Fatalf("final digest after corrupt-fallback recovery differs from the uninterrupted run (%d vs %d bytes)",
			len(got), len(want))
	}
}
