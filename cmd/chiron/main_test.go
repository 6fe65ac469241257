package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"chiron/internal/experiment"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/scenario"
	"chiron/internal/supervise"
)

// sigTarget is a minimal supervise.Target whose training state is just an
// episode counter, so the interrupt test needs no real mechanism.
type sigTarget struct{ episode int }

func (f *sigTarget) Episode() int { return f.episode }

func (f *sigTarget) Train(episodes int, callback func(mechanism.EpisodeResult)) ([]mechanism.EpisodeResult, error) {
	var out []mechanism.EpisodeResult
	for i := 0; i < episodes; i++ {
		f.episode++
		res := mechanism.EpisodeResult{Episode: f.episode, Rounds: f.episode}
		if callback != nil {
			callback(res)
		}
		out = append(out, res)
	}
	return out, nil
}

func (f *sigTarget) Checkpoint() (*rl.Checkpoint, error) {
	return &rl.Checkpoint{Mechanism: "sig", Nodes: 1, Episode: f.episode}, nil
}

func (f *sigTarget) Restore(ck *rl.Checkpoint) error {
	if ck.Mechanism != "sig" {
		return fmt.Errorf("%w: checkpoint for %q, want \"sig\"", rl.ErrShapeMismatch, ck.Mechanism)
	}
	f.episode = ck.Episode
	return nil
}

// TestTrainInterruptFlushesCheckpoint pins the graceful-shutdown contract
// of `chiron train -auto-checkpoint`: a SIGINT delivered mid-run makes the
// supervise gate fail at the next checkpoint chunk, the final checkpoint is
// flushed atomically, and a rerun over the same directory resumes exactly
// where the interrupt landed.
func TestTrainInterruptFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	factory := func() (supervise.Target, error) { return &sigTarget{}, nil }
	cfg := supervise.Config{Dir: dir, Every: 2}
	interrupts := make(chan os.Signal, 1)
	report, stopped, err := superviseTrain(factory, 6, cfg, interrupts, func(res mechanism.EpisodeResult) {
		if res.Episode == 2 {
			interrupts <- syscall.SIGINT
		}
	})
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if !stopped {
		t.Fatal("interrupted run did not report a stop")
	}
	if got := report.ResumedFrom + len(report.Episodes); got != 2 {
		t.Fatalf("stopped after %d episodes, want 2", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000002.json")); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}

	report, stopped, err = superviseTrain(factory, 6, cfg, nil, nil)
	if err != nil || stopped {
		t.Fatalf("resumed run: stopped %v, err %v", stopped, err)
	}
	if report.ResumedFrom != 2 {
		t.Fatalf("resumed from %d, want 2", report.ResumedFrom)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000006.json")); err != nil {
		t.Fatalf("completed checkpoint missing: %v", err)
	}
}

// TestUsageListsEverySubcommand pins the no-argument usage line to the
// four subcommands run dispatches.
func TestUsageListsEverySubcommand(t *testing.T) {
	err := run(nil)
	if err == nil {
		t.Fatal("run with no arguments succeeded")
	}
	if want := "usage: chiron <train|run|replay|list> [flags]"; err.Error() != want {
		t.Fatalf("usage = %q, want %q", err, want)
	}
}

// TestRunFlagScenarioConflicts pins the contract that CLI flags may never
// silently override (or be overridden by) a loaded scenario spec: every
// contradictory combination is a hard error naming the conflict.
func TestRunFlagScenarioConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			"artifact and scenario",
			[]string{"run", "-artifact", "fig4", "-scenario", "paper-baseline"},
			"mutually exclusive",
		},
		{
			"churn flag vs scenario churn block",
			[]string{"run", "-scenario", "churny-fleet", "-churn", "-3@5,+3@9"},
			"already declares a churn block",
		},
		{
			"budget vs scenario budget grid",
			[]string{"run", "-scenario", "paper-baseline", "-budget", "500"},
			"fixes its own budget grid",
		},
		{
			"mechanism vs scenario mechanism grid",
			[]string{"run", "-scenario", "paper-baseline", "-mechanism", "greedy"},
			"fixes its own mechanism grid",
		},
		{
			"record without scenario",
			[]string{"run", "-artifact", "fig4", "-record", "t.jsonl"},
			"requires -scenario",
		},
		{
			"churn without scenario",
			[]string{"run", "-artifact", "fig4", "-churn", "-3@5"},
			"requires -scenario",
		},
		{
			"out with scenario",
			[]string{"run", "-scenario", "paper-baseline", "-out", "results"},
			"-out requires -artifact",
		},
		{
			"neither artifact nor scenario",
			[]string{"run"},
			"-artifact or -scenario is required",
		},
		{
			"unknown scenario",
			[]string{"run", "-scenario", "no-such-thing"},
			"neither a library scenario",
		},
		{"zero scale", []string{"run", "-scenario", "paper-baseline", "-scale", "0"}, "outside (0,1]"},
		{"negative scale", []string{"run", "-scenario", "paper-baseline", "-scale", "-1"}, "outside (0,1]"},
		{"NaN scale", []string{"run", "-scenario", "paper-baseline", "-scale", "NaN"}, "outside (0,1]"},
		{"scale above one", []string{"run", "-scenario", "paper-baseline", "-scale", "5"}, "outside (0,1]"},
		{"record with bad scale", []string{"run", "-scenario", "paper-baseline", "-record", "t.jsonl", "-scale", "0"}, "outside (0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want conflict error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want it to mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestScenarioRecordReplayCLI drives the full CLI loop on a tiny spec
// file: run -scenario -record writes a replayable trace, and replay
// accepts it with and without a counterfactual mechanism.
func TestScenarioRecordReplayCLI(t *testing.T) {
	dir := t.TempDir()
	s, ok := scenario.Lookup("paper-baseline")
	if !ok {
		t.Fatal("paper-baseline missing from library")
	}
	s.Name = "cli-smoke"
	s.Budgets = []float64{80}
	s.EvalEpisodes = 1
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	specPath := filepath.Join(dir, "smoke.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatalf("write spec: %v", err)
	}
	tracePath := filepath.Join(dir, "smoke.jsonl")
	if err := run([]string{"run", "-scenario", specPath, "-record", tracePath}); err != nil {
		t.Fatalf("run -scenario -record: %v", err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("recorded trace missing: %v", err)
	}
	if err := run([]string{"replay", "-trace", tracePath}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := run([]string{"replay", "-trace", tracePath, "-mechanism", "equal-time"}); err != nil {
		t.Fatalf("counterfactual replay: %v", err)
	}
	if err := run([]string{"replay"}); err == nil {
		t.Error("replay without -trace succeeded")
	}
	if err := run([]string{"replay", "-trace", tracePath, "-budget", "-100"}); !errors.Is(err, scenario.ErrNegativeBudget) {
		t.Errorf("replay -budget -100 error = %v, want ErrNegativeBudget", err)
	}
	if err := run([]string{"replay", "-trace", tracePath, "-episodes", "-3"}); err == nil {
		t.Error("replay -episodes -3 succeeded")
	}
}

func TestTrainKindAliases(t *testing.T) {
	cases := []struct {
		name string
		want experiment.MechanismKind
		err  string
	}{
		{"chiron", experiment.KindChiron, ""},
		{"Chiron", experiment.KindChiron, ""},
		{"drl", experiment.KindDRLBased, ""},
		{"DRL", experiment.KindDRLBased, ""},
		{"drl-based", experiment.KindDRLBased, ""},
		{"DRL-Based", experiment.KindDRLBased, ""},
		{"greedy", experiment.KindGreedy, ""},
		{"GREEDY", experiment.KindGreedy, ""},
		{"uniform", 0, "not trainable"},
		{"equal-time", 0, "not trainable"},
		{"EqualTime-Oracle", 0, "not trainable"},
		{"ppo", 0, "unknown mechanism"},
		{"", 0, "unknown mechanism"},
	}
	for _, c := range cases {
		got, err := trainKind(c.name)
		if c.err == "" {
			if err != nil || got != c.want {
				t.Errorf("trainKind(%q) = %v, %v; want %v", c.name, got, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("trainKind(%q) error %v, want one containing %q", c.name, err, c.err)
		}
	}
	if _, err := trainKind("nope"); !errors.Is(err, scenario.ErrUnknownMechanism) {
		t.Errorf("unknown baseline error %v does not wrap ErrUnknownMechanism", err)
	}
}
