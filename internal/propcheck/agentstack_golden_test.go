package propcheck

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/baselines"
	"chiron/internal/core"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
)

var updateGolden = flag.Bool("update", false, "regenerate the agent-stack golden traces")

// agentStackEnv builds a clean (fault-free) environment for the action-trace
// goldens: the traces pin the *agent* stack — encoders, heads, RNG draw
// order, and update scheduling — so the environment stays at the paper's
// clean assumptions.
func agentStackEnv(t *testing.T, seed int64) *edgeenv.Env {
	t.Helper()
	const nodes = 3
	rng := rand.New(rand.NewSource(seed))
	fleet, err := device.NewFleetBatch(rng, device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(seed+100)), accuracy.PresetMNIST, nodes)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	cfg := edgeenv.DefaultConfig(fleet, acc, 150)
	cfg.MaxRounds = 30
	env, err := edgeenv.New(cfg)
	if err != nil {
		t.Fatalf("edgeenv.New: %v", err)
	}
	return env
}

// traceMechanism trains m for episodes episodes and renders every committed
// round's price vector as exact float64 bit patterns — the mechanism's full
// action sequence, robust to any internal refactoring because it is read
// from the environment ledger.
func traceMechanism(t *testing.T, m mechanism.Mechanism, episodes int, sb *strings.Builder) {
	t.Helper()
	tr, ok := m.(mechanism.Trainable)
	if !ok {
		t.Fatalf("%s is not trainable", m.Name())
	}
	_, err := tr.Train(episodes, func(res mechanism.EpisodeResult) {
		// The ledger still holds this episode's rounds until the next Reset.
		rounds := m.Env().Ledger().Rounds()
		fmt.Fprintf(sb, "episode %d rounds %d\n", res.Episode, len(rounds))
		for i := range rounds {
			r := &rounds[i]
			fmt.Fprintf(sb, "round %d", r.Index)
			for _, p := range r.Prices {
				fmt.Fprintf(sb, " %016x", math.Float64bits(p))
			}
			sb.WriteByte('\n')
		}
	})
	if err != nil {
		t.Fatalf("train %s: %v", m.Name(), err)
	}
}

// TestAgentStackGoldenTraces pins the byte-exact action sequences of the two
// PPO-driven mechanisms (Chiron and DRL-based) at seeds {1,2,3} against
// golden files recorded before the unified agent-stack refactor. Any change
// to state encoding, action squashing, RNG draw order, or update scheduling
// shifts at least one price by at least one ULP and fails the comparison.
// Regenerate with -update (only when a behavior change is intended).
func TestAgentStackGoldenTraces(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder

			fmt.Fprintf(&sb, "mechanism Chiron seed %d\n", seed)
			ccfg := core.DefaultConfig()
			ccfg.Exterior = smallPPO(ccfg.Exterior)
			ccfg.Inner = smallPPO(ccfg.Inner)
			ccfg.MinUpdateSamples = 16
			ccfg.Seed = seed
			ch, err := core.New(agentStackEnv(t, seed), ccfg)
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			traceMechanism(t, ch, 4, &sb)

			fmt.Fprintf(&sb, "mechanism DRL-based seed %d\n", seed)
			dcfg := baselines.DefaultDRLBasedConfig()
			dcfg.PPO = smallPPO(dcfg.PPO)
			dcfg.Seed = seed
			drl, err := baselines.NewDRLBased(agentStackEnv(t, seed), dcfg)
			if err != nil {
				t.Fatalf("NewDRLBased: %v", err)
			}
			traceMechanism(t, drl, 4, &sb)

			got := sb.String()
			path := filepath.Join("testdata", fmt.Sprintf("agentstack_seed%d.golden", seed))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("agent-stack trace diverged from pre-refactor golden %s\n"+
					"(a one-ULP price change anywhere in the action sequence fails this test;\n"+
					"regenerate with -update only if the behavior change is intended)", path)
			}
		})
	}
}
