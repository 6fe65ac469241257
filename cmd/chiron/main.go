// Command chiron trains and evaluates the hierarchical incentive mechanism
// on a configurable edge-learning system, or runs any of the paper's
// reproduced experiments by artifact id.
//
// Usage:
//
//	chiron train   [-nodes N] [-budget η] [-dataset mnist|fashion|cifar]
//	               [-episodes E] [-seed S] [-real] [-baseline chiron|drl|greedy]
//	               [-churn SCRIPT] [-depart-rate P] [-arrive-rate P]
//	               [-auto-checkpoint DIR [-checkpoint-every N]]
//	chiron run     [-artifact ID[,ID...]|all] [-scale F] [-jobs N] [-out DIR]
//	chiron run     [-scenario NAME|file.json] [-scale F] [-jobs N] [-churn SCRIPT]
//	               [-record trace.jsonl [-mechanism M] [-budget η]]
//	chiron replay  [-trace trace.jsonl] [-mechanism M] [-budget η] [-episodes E]
//	chiron list
//
// With -auto-checkpoint, train saves a checkpoint into DIR every
// -checkpoint-every episodes and starts from the newest valid one there.
// A training error ends the command; running the same command again
// resumes from the last checkpoint. SIGINT or SIGTERM flushes a final
// checkpoint first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"chiron"
	"chiron/internal/accuracy"
	"chiron/internal/experiment"
	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/scenario"
	"chiron/internal/supervise"
	"chiron/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "chiron: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: chiron <train|run|replay|list> [flags]")
	}
	switch args[0] {
	case "train":
		return cmdTrain(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "list":
		return cmdList()
	default:
		return fmt.Errorf("unknown subcommand %q (want train, run, replay, or list)", args[0])
	}
}

// trainKind resolves -baseline through the mechanism names specs and
// chirond accept (any letter case, "drl" or "drl-based", ...) and rejects
// the static references, which have nothing to train.
func trainKind(name string) (experiment.MechanismKind, error) {
	kind, err := scenario.MechanismKind(name)
	if err != nil {
		return 0, fmt.Errorf("%w: -baseline %q (want chiron, drl, or greedy)", scenario.ErrUnknownMechanism, name)
	}
	switch kind {
	case experiment.KindChiron, experiment.KindDRLBased, experiment.KindGreedy:
		return kind, nil
	}
	return 0, fmt.Errorf("-baseline %q: %s is not trainable (want chiron, drl, or greedy)", name, kind)
}

func cmdTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	nodes := fs.Int("nodes", 5, "number of edge nodes")
	budget := fs.Float64("budget", 300, "total incentive budget η")
	datasetName := fs.String("dataset", "mnist", "learning task: mnist, fashion, or cifar")
	episodes := fs.Int("episodes", 500, "training episodes")
	evalEpisodes := fs.Int("eval", 5, "deterministic evaluation episodes after training")
	seed := fs.Int64("seed", 7, "random seed")
	real := fs.Bool("real", false, "measure accuracy with real FedAvg neural training instead of the surrogate curve")
	workers := fs.Int("workers", 0, "worker count bounding the PPO update's concurrent critic/actor and per-agent streams and a large fleet's round bands (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	baseline := fs.String("baseline", "chiron", "mechanism to train: chiron, drl, or greedy")
	logEvery := fs.Int("log-every", 50, "print progress every this many episodes (0 disables)")
	save := fs.String("save", "", "write the trained mechanism checkpoint to this path (any learnable mechanism)")
	load := fs.String("load", "", "restore a mechanism checkpoint before training/evaluation")
	tracePath := fs.String("trace", "", "write a JSONL training trace (round + episode records) to this path")
	churnSpec := fs.String("churn", "", "scripted churn plan, e.g. \"-3@5,+3@9\" (overrides the churn rates)")
	departRate := fs.Float64("depart-rate", 0, "per-round probability a fleet member departs")
	arriveRate := fs.Float64("arrive-rate", 0, "per-round probability a departed node rejoins")
	autoCkpt := fs.String("auto-checkpoint", "", "supervise training with periodic checkpoints in this directory, resuming from the newest valid one")
	ckptEvery := fs.Int("checkpoint-every", 10, "episodes between auto-checkpoints (with -auto-checkpoint)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *evalEpisodes < 0 {
		return fmt.Errorf("eval %d must be >= 0 (0 skips evaluation)", *evalEpisodes)
	}
	if *logEvery < 0 {
		return fmt.Errorf("log-every %d must be >= 0 (0 disables progress lines)", *logEvery)
	}
	if *autoCkpt != "" && *load != "" {
		return fmt.Errorf("-load conflicts with -auto-checkpoint (the supervisor resumes from its own directory)")
	}
	if *autoCkpt == "" && setFlags(fs)["checkpoint-every"] {
		return fmt.Errorf("-checkpoint-every requires -auto-checkpoint")
	}

	kind, err := trainKind(*baseline)
	if err != nil {
		return err
	}
	ds, err := parseDataset(*datasetName)
	if err != nil {
		return err
	}
	var churn chiron.ChurnSchedule
	switch {
	case *churnSpec != "":
		script, err := chiron.ParseChurnScript(*churnSpec)
		if err != nil {
			return err
		}
		if err := script.Validate(*nodes); err != nil {
			return err
		}
		churn = script
	case *departRate != 0 || *arriveRate != 0:
		churn, err = chiron.NewChurnSampler(chiron.ChurnRates{Depart: *departRate, Arrive: *arriveRate}, *seed+2)
		if err != nil {
			return err
		}
	}
	// buildMechanism assembles a fresh system and mechanism from scratch —
	// called once for a plain run, once per checkpoint the supervisor tries
	// to restore.
	buildMechanism := func() (chiron.Mechanism, error) {
		sys, err := chiron.NewSystem(chiron.SystemConfig{
			Nodes:        *nodes,
			Dataset:      ds,
			Budget:       *budget,
			Seed:         *seed,
			RealTraining: *real,
			Workers:      *workers,
			Churn:        churn,
		})
		if err != nil {
			return nil, err
		}
		switch kind {
		case experiment.KindDRLBased:
			return sys.NewBaselineDRL()
		case experiment.KindGreedy:
			return sys.NewBaselineGreedy()
		default:
			return sys.Agent(), nil
		}
	}
	m, err := buildMechanism()
	if err != nil {
		return err
	}

	if *load != "" {
		agent, ok := m.(mechanism.Checkpointer)
		if !ok {
			return fmt.Errorf("-load does not apply to mechanism %s", m.Name())
		}
		ck, err := rl.LoadCheckpoint(*load)
		if err != nil {
			return err
		}
		if err := agent.Restore(ck); err != nil {
			return err
		}
		fmt.Printf("restored checkpoint from %s (episode %d)\n", *load, agent.Episode())
	}
	fmt.Printf("training %s: %d nodes, dataset %s, budget %.0f, %d episodes\n",
		m.Name(), *nodes, ds, *budget, *episodes)
	// An unwritable trace fails the command after training, evaluation and
	// -save: with the first write error, or else Close's.
	var tw *trace.Writer
	var traceErr error
	if *tracePath != "" {
		if tw, err = trace.Create(*tracePath); err != nil {
			return err
		}
		defer func() {
			cerr := tw.Close()
			if err == nil {
				err = traceErr
			}
			if err == nil {
				err = cerr
			}
		}()
	}
	count := 0
	callback := func(r chiron.EpisodeResult) {
		count++
		if *logEvery > 0 && count%*logEvery == 0 {
			fmt.Printf("  episode %4d: rounds=%3d accuracy=%.3f reward=%8.1f time-eff=%5.1f%%\n",
				r.Episode, r.Rounds, r.FinalAccuracy, r.ExteriorReturn, 100*r.TimeEfficiency)
		}
		if tw != nil && traceErr == nil {
			// The ledger still holds this episode's rounds until the next
			// Reset, so the full round history is recordable here.
			rounds := m.Env().Ledger().Rounds()
			for i := range rounds {
				if traceErr = tw.WriteRound(r.Episode, &rounds[i]); traceErr != nil {
					return
				}
			}
			traceErr = tw.WriteEpisode(r)
		}
	}
	if *autoCkpt != "" {
		interrupts := make(chan os.Signal, 1)
		signal.Notify(interrupts, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(interrupts)
		factory := func() (supervise.Target, error) {
			fresh, err := buildMechanism()
			if err != nil {
				return nil, err
			}
			target, ok := fresh.(supervise.Target)
			if !ok {
				return nil, fmt.Errorf("mechanism %s cannot be supervised (needs training + checkpoints)", fresh.Name())
			}
			// Point the trace/eval plumbing at the live attempt.
			m = fresh
			return target, nil
		}
		report, stopped, err := superviseTrain(factory, *episodes, supervise.Config{
			Dir:   *autoCkpt,
			Every: *ckptEvery,
		}, interrupts, callback)
		if err != nil {
			return err
		}
		fmt.Printf("supervised run: resumed from episode %d, %d checkpoints, %d corrupt checkpoints skipped\n",
			report.ResumedFrom, report.Checkpoints, report.CorruptSkipped)
		if stopped {
			fmt.Printf("stopped after episode %d; final checkpoint flushed to %s — rerun with -auto-checkpoint to resume\n",
				report.ResumedFrom+len(report.Episodes), *autoCkpt)
			return nil
		}
	} else {
		tr, ok := m.(mechanism.Trainable)
		if !ok {
			return fmt.Errorf("mechanism %s is not trainable", m.Name())
		}
		if _, err := tr.Train(*episodes, callback); err != nil {
			return err
		}
	}
	if *evalEpisodes > 0 {
		res, err := mechanism.Evaluate(m, *evalEpisodes)
		if err != nil {
			return err
		}
		fmt.Printf("\nevaluation over %d deterministic episodes:\n", *evalEpisodes)
		fmt.Printf("  final accuracy : %.3f\n", res.FinalAccuracy)
		fmt.Printf("  rounds         : %d\n", res.Rounds)
		fmt.Printf("  time efficiency: %.1f%%\n", 100*res.TimeEfficiency)
		fmt.Printf("  budget spent   : %.1f / %.0f\n", res.BudgetSpent, *budget)
		fmt.Printf("  server utility : %.1f\n", res.ServerUtility)
	}
	if *save != "" {
		agent, ok := m.(mechanism.Checkpointer)
		if !ok {
			return fmt.Errorf("-save does not apply to mechanism %s", m.Name())
		}
		ck, err := agent.Checkpoint()
		if err != nil {
			return err
		}
		if err := rl.SaveCheckpoint(*save, ck); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	artifact := fs.String("artifact", "", "comma-separated artifact ids (see 'chiron list'), or 'all' for the paper's seven")
	scale := fs.Float64("scale", 1.0, "episode-count scale factor in (0,1]; 1.0 reproduces the paper's full runs")
	jobs := fs.Int("jobs", 1, "concurrent experiment jobs (0 = GOMAXPROCS); reports are identical at any setting")
	scenarioArg := fs.String("scenario", "", "library scenario name or spec file (JSON); runs its full mechanism × budget grid")
	record := fs.String("record", "", "with -scenario: record one cell's environment draws to this replayable trace file")
	mech := fs.String("mechanism", "", "with -record: which of the scenario's mechanisms to record (default: its first)")
	budget := fs.Float64("budget", 0, "with -record: which of the scenario's budgets to record (default: its first)")
	churnSpec := fs.String("churn", "", "with -scenario: scripted churn plan, e.g. \"-3@5,+3@9\", for specs with no churn block")
	out := fs.String("out", "", "with -artifact: write each paper artifact's CSV series and summary.txt (every report) to this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := setFlags(fs)
	if *jobs < 0 {
		return fmt.Errorf("jobs %d must be >= 0 (0 = GOMAXPROCS)", *jobs)
	}
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("scale %v outside (0,1]", *scale)
	}
	if *scenarioArg != "" {
		if *artifact != "" {
			return fmt.Errorf("-artifact and -scenario are mutually exclusive")
		}
		if set["out"] {
			return fmt.Errorf("-out requires -artifact")
		}
		return runScenario(*scenarioArg, *scale, *jobs, *record, *mech, *budget, *churnSpec, set)
	}
	for _, name := range []string{"record", "mechanism", "budget", "churn"} {
		if set[name] {
			return fmt.Errorf("-%s requires -scenario", name)
		}
	}
	if *artifact == "" {
		return fmt.Errorf("-artifact or -scenario is required (use 'chiron list' to see both)")
	}
	return runArtifacts(*artifact, *scale, *jobs, *out)
}

// runArtifacts runs each listed artifact through experiment.RunJobs and
// prints its report. With a non-empty outDir it also writes each paper
// artifact's CSV series as <id>.csv and every report to summary.txt.
func runArtifacts(list string, scale float64, jobs int, outDir string) error {
	ids := chiron.Artifacts()
	if list != "all" {
		known := append(chiron.Artifacts(), chiron.ExtraArtifacts()...)
		ids = nil
		for _, tok := range strings.Split(list, ",") {
			id := chiron.Artifact(strings.TrimSpace(tok))
			if !slices.Contains(known, id) {
				return fmt.Errorf("unknown artifact %q (see 'chiron list')", id)
			}
			ids = append(ids, id)
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	var summary strings.Builder
	for _, id := range ids {
		report, csv, err := experiment.RunJobs(id, scale, jobs)
		if err != nil {
			return err
		}
		fmt.Println(report)
		summary.WriteString(report + "\n")
		if outDir != "" && csv != nil {
			if err := os.WriteFile(filepath.Join(outDir, string(id)+".csv"), csv, 0o644); err != nil {
				return err
			}
		}
	}
	if outDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(outDir, "summary.txt"), []byte(summary.String()), 0o644)
}

// errInterrupted is the supervise gate's error once SIGINT or SIGTERM has
// arrived.
var errInterrupted = errors.New("interrupted")

// superviseTrain runs factory's target for episodes under cfg, with a gate
// that fails with errInterrupted once a signal has arrived on interrupts
// (nil = none wired). The runner consults the gate between checkpoint
// chunks and flushes a final checkpoint before it returns the gate's error,
// so an interrupted run reports stopped and leaves a resume point in
// cfg.Dir.
func superviseTrain(factory supervise.Factory, episodes int, cfg supervise.Config, interrupts <-chan os.Signal, callback func(mechanism.EpisodeResult)) (report *supervise.Report, stopped bool, err error) {
	cfg.Gate = func() error {
		select {
		case <-interrupts:
			fmt.Fprintln(os.Stderr, "chiron: interrupt — flushing a final checkpoint")
			return errInterrupted
		default:
			return nil
		}
	}
	runner, err := supervise.New(factory, cfg)
	if err != nil {
		return nil, false, err
	}
	_, report, err = runner.Run(episodes, callback)
	if errors.Is(err, errInterrupted) {
		return report, true, nil
	}
	return report, false, err
}

// setFlags reports which flags were explicitly given on the command line,
// so scenario conflict checks can distinguish "user said -budget 300" from
// the flag's default value.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// loadScenario resolves a -scenario argument: a library name first, then a
// spec file path.
func loadScenario(arg string) (*scenario.Spec, error) {
	if s, ok := scenario.Lookup(arg); ok {
		return s, nil
	}
	s, err := scenario.Load(arg)
	if err != nil {
		if _, statErr := os.Stat(arg); os.IsNotExist(statErr) {
			return nil, fmt.Errorf("%q is neither a library scenario (see 'chiron list') nor a readable spec file: %w", arg, err)
		}
		return nil, err
	}
	return s, nil
}

// runScenario executes (or records) a declarative scenario. Flags that
// contradict what the loaded spec already pins are hard errors — a spec is
// the experiment's single source of truth, so the CLI never silently
// prefers one side.
func runScenario(arg string, scale float64, jobs int, record, mech string, budget float64, churnSpec string, set map[string]bool) error {
	s, err := loadScenario(arg)
	if err != nil {
		return err
	}
	if set["churn"] {
		if s.Churn != nil {
			return fmt.Errorf("scenario %s already declares a churn block; -churn contradicts it (edit the spec instead)", s.Name)
		}
		s.Churn = &scenario.ChurnSpec{Script: churnSpec}
	}
	if scale != 1.0 {
		s = s.Scale(scale)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if record == "" {
		for _, name := range []string{"mechanism", "budget"} {
			if set[name] {
				return fmt.Errorf("scenario %s fixes its own %s grid; -%s only selects the cell to -record", s.Name, name, name)
			}
		}
		res, err := scenario.Run(s, jobs, scenario.CellHooks{})
		if err != nil {
			return err
		}
		fmt.Print(res.Summary())
		return nil
	}
	tw, err := trace.Create(record)
	if err != nil {
		return err
	}
	rec, err := scenario.Record(s, mech, budget, tw)
	if cerr := tw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("recorded scenario %s: %s at η=%g, %d episodes → %s (digest %s)\n",
		s.Name, rec.Mechanism, rec.Budget, len(rec.Episodes), record, rec.Digest())
	return nil
}

// cmdReplay re-runs a recorded trace's environment draws, either with the
// recorded mechanism and budget (bit-identical reproduction) or against a
// counterfactual mechanism/budget.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "replayable trace file written by 'chiron run -scenario ... -record'")
	mech := fs.String("mechanism", "", "counterfactual mechanism (default: the recorded one)")
	budget := fs.Float64("budget", 0, "counterfactual budget η (default: the recorded one)")
	episodes := fs.Int("episodes", 0, "episodes to replay (default: as recorded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := trace.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	rep, err := scenario.Replay(tr, scenario.ReplayOptions{
		Mechanism: *mech,
		Budget:    *budget,
		Episodes:  *episodes,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	return nil
}

func cmdList() error {
	fmt.Println("reproduced paper artifacts:")
	for _, a := range chiron.Artifacts() {
		fmt.Printf("  %-10s %s\n", a, chiron.DescribeArtifact(a))
	}
	fmt.Println("ablation studies:")
	for _, a := range chiron.ExtraArtifacts() {
		fmt.Printf("  %-10s %s\n", a, chiron.DescribeArtifact(a))
	}
	fmt.Println("named scenarios (run -scenario <name>):")
	for _, s := range scenario.Describe() {
		fmt.Printf("  %-18s %s\n", s[0], s[1])
	}
	return nil
}

// parseDataset resolves a -dataset name through accuracy.ParsePreset, the
// vocabulary scenario specs share. The Table I preset names no task here.
func parseDataset(name string) (chiron.Dataset, error) {
	p, err := accuracy.ParsePreset(name)
	if err != nil || p == accuracy.PresetMNISTLarge {
		return 0, fmt.Errorf("unknown dataset %q (want mnist, fashion, or cifar)", name)
	}
	return p, nil
}
