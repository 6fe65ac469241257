package scenario

import (
	"fmt"
	"strings"

	"chiron/internal/mechanism"
	"chiron/internal/rl"
	"chiron/internal/trace"
)

// ReplayOptions select what plays against the recorded environment draws.
// The zero value replays the recording as-is: same mechanism (restored from
// the embedded checkpoint), same budget, same episode count — which must
// reproduce the recorded results bit-for-bit.
type ReplayOptions struct {
	// Mechanism overrides the recorded mechanism ("" keeps it): the
	// counterfactual "same environment, different policy".
	Mechanism string
	// Budget overrides the recorded η (0 keeps it): "same environment,
	// different budget". With the recorded mechanism, the recorded policy
	// (checkpoint) plays under the new budget. A negative or NaN budget
	// is refused with ErrNegativeBudget.
	Budget float64
	// Episodes overrides how many recorded episodes to replay (0 = all;
	// negative is refused).
	Episodes int
}

// ReplayResult is a counterfactual ledger: what the selected mechanism and
// budget would have earned, spent, and trained against the recorded
// environment draws.
type ReplayResult struct {
	EpisodeSet
	// Counterfactual reports whether mechanism or budget differ from the
	// recording; when false the result must equal the recording exactly.
	Counterfactual bool
	// RecordedMechanism and RecordedBudget echo the trace header.
	RecordedMechanism string
	RecordedBudget    float64
}

// Summary renders the replay as readable per-episode lines plus the
// exact-bits digest line.
func (r *ReplayResult) Summary() string {
	var b strings.Builder
	verb := "replay"
	if r.Counterfactual {
		verb = "counterfactual"
	}
	fmt.Fprintf(&b, "%s %s: %s eta=%g (recorded %s eta=%g)\n",
		verb, r.Scenario, r.Mechanism, r.Budget, r.RecordedMechanism, r.RecordedBudget)
	for _, e := range r.Episodes {
		fmt.Fprintf(&b, "  ep %d: rounds=%-4d acc=%.6f extret=%.6g spend=%.6g teff=%.6f util=%.6g\n",
			e.Episode, e.Rounds, e.FinalAccuracy, e.ExteriorReturn,
			e.BudgetSpent, e.TimeEfficiency, e.ServerUtility)
	}
	fmt.Fprintf(&b, "digest %s\n", r.Digest())
	return b.String()
}

// Replay re-runs a recorded trace's evaluation episodes with the
// environment draws pinned to the tape: membership, availability, and
// bandwidth jitter are read back verbatim, so the only thing that changes
// is what the selected mechanism pays and recruits. With the recorded
// mechanism and budget this reproduces the recording bit-for-bit; with a
// different mechanism or budget it answers the counterfactual "what would
// that policy have achieved in this exact environment" without
// re-simulating the environment.
//
// Rounds past the end of the tape (a cheaper policy can stretch the budget
// further than the recording went) are extended deterministically from the
// spec — see the tape type.
func Replay(tr *trace.Trace, opts ReplayOptions) (*ReplayResult, error) {
	if tr.Header == nil {
		return nil, fmt.Errorf("scenario: trace has no header; only traces recorded via Record (chiron run -record) can be replayed")
	}
	h := tr.Header
	if len(h.Scenario) == 0 {
		return nil, fmt.Errorf("scenario: trace header embeds no scenario spec")
	}
	spec, err := Parse(h.Scenario)
	if err != nil {
		return nil, fmt.Errorf("scenario: embedded spec: %w", err)
	}
	recordedKind, err := MechanismKind(h.Mechanism)
	if err != nil {
		return nil, fmt.Errorf("scenario: trace header: %w", err)
	}
	kind := recordedKind
	if opts.Mechanism != "" {
		if kind, err = MechanismKind(opts.Mechanism); err != nil {
			return nil, err
		}
	}
	budget := h.Budget
	switch {
	case !(opts.Budget >= 0):
		return nil, fmt.Errorf("%w: replay η=%v", ErrNegativeBudget, opts.Budget)
	case opts.Budget > 0:
		budget = opts.Budget
	}
	episodes := h.EvalEpisodes
	switch {
	case opts.Episodes < 0:
		return nil, fmt.Errorf("scenario: replay of %d episodes, want >= 0 (0 = as recorded)", opts.Episodes)
	case opts.Episodes > 0:
		episodes = opts.Episodes
	}
	if episodes <= 0 {
		return nil, fmt.Errorf("scenario: replay of %d episodes", episodes)
	}
	sameMechanism := kind == recordedKind

	tape, err := newTape(tr, spec)
	if err != nil {
		return nil, err
	}
	cell := Cell{Mechanism: kind.String(), Kind: kind, Budget: budget}
	run, accRng, err := openCell(spec, cell, envHooks{draws: tape})
	if err != nil {
		return nil, err
	}
	m, env := run.m, run.m.Env()
	tape.bindFleet(env.Fleet().CommTime)
	if sameMechanism {
		// The recorded policy plays again — restored from the embedded
		// checkpoint even under a budget override, so the counterfactual is
		// "this trained policy, different purse", not a retrained one.
		if len(h.Checkpoint) > 0 {
			cp, ok := m.(mechanism.Checkpointer)
			if !ok {
				return nil, fmt.Errorf("scenario: trace carries a checkpoint but %s cannot load one", m.Name())
			}
			ck, err := rl.ParseCheckpoint(h.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("scenario: embedded checkpoint: %w", err)
			}
			if err := cp.Restore(ck); err != nil {
				return nil, fmt.Errorf("scenario: restore checkpoint: %w", err)
			}
		}
	} else if run.TrainRemaining() > 0 {
		// A counterfactual learner trains from scratch on a plain
		// environment at the replay budget (its own fresh draws — training
		// must not consume the tape), then its state transfers onto the
		// taped environment as a checkpoint value.
		trainer, err := OpenCell(spec, cell)
		if err != nil {
			return nil, err
		}
		if err := trainer.Train(CellHooks{}); err != nil {
			return nil, err
		}
		ck, err := trainer.m.(mechanism.Checkpointer).Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("scenario: checkpoint %s: %w", m.Name(), err)
		}
		if err := m.(mechanism.Checkpointer).Restore(ck); err != nil {
			return nil, fmt.Errorf("scenario: restore checkpoint: %w", err)
		}
	}

	out := &ReplayResult{
		EpisodeSet:        EpisodeSet{Scenario: spec.Name, Mechanism: kind.String(), Budget: budget},
		Counterfactual:    !sameMechanism || budget != h.Budget,
		RecordedMechanism: h.Mechanism,
		RecordedBudget:    h.Budget,
	}
	for ep := 1; ep <= episodes; ep++ {
		accRng.Seed(evalSeed(spec.Seed, ep))
		tape.setEpisode(ep)
		res, err := m.RunEpisode(false)
		if err != nil {
			return nil, fmt.Errorf("scenario: replay episode %d: %w", ep, err)
		}
		res.Episode = ep
		rounds := env.Ledger().Rounds()
		for i := range rounds {
			out.Rounds = append(out.Rounds, trace.NewRoundRecord(ep, &rounds[i]))
		}
		out.Episodes = append(out.Episodes, res)
	}
	return out, nil
}
