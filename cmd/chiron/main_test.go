package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/scenario"
	"chiron/internal/session"
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
// of the supervised train path: a SIGINT delivered mid-run stops the
// session at the next episode boundary, the final checkpoint is flushed
// atomically, and a rerun over the same directory resumes exactly where
// the interrupt landed.
func TestTrainInterruptFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	factory := func() (supervise.Target, error) { return &sigTarget{}, nil }
	interrupts := make(chan os.Signal, 1)
	var sess *session.Session
	sess, err := session.New(session.Config{
		Train: &session.TrainConfig{
			Factory:   factory,
			Episodes:  6,
			Supervise: supervise.Config{Dir: dir, Every: 2},
		},
		OnEpisode: func(ev session.EpisodeEvent) {
			if ev.Seq == 2 {
				// Pause first so the worker deterministically parks at the
				// next gate, then deliver the fake signal.
				sess.Pause()
				interrupts <- syscall.SIGINT
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runSession(sess, interrupts)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if st != session.StateStopped {
		t.Fatalf("state after interrupt %s, want stopped", st)
	}
	report, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := report.ResumedFrom + len(report.Episodes); got != 2 {
		t.Fatalf("stopped after %d episodes, want 2", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000002.json")); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}

	resumed, err := session.New(session.Config{
		Train: &session.TrainConfig{
			Factory:   factory,
			Episodes:  6,
			Supervise: supervise.Config{Dir: dir, Every: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := runSession(resumed, nil); err != nil || st != session.StateDone {
		t.Fatalf("resumed run: state %s, err %v", st, err)
	}
	report, err = resumed.Report()
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != 2 {
		t.Fatalf("resumed from %d, want 2", report.ResumedFrom)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000006.json")); err != nil {
		t.Fatalf("completed checkpoint missing: %v", err)
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
}
