package scenario

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"chiron/internal/mechanism"
	"chiron/internal/trace"
)

// EpisodeSet is the common shape of a recorded or replayed evaluation: the
// per-episode summaries and per-round records of one (mechanism, budget)
// cell, with a ULP-sensitive digest over all of it. Same-mechanism replay
// must reproduce the recorded set bit-for-bit — the property the replay
// conformance tests and the propcheck suite pin.
type EpisodeSet struct {
	Scenario  string
	Mechanism string
	Budget    float64
	Episodes  []mechanism.EpisodeResult
	Rounds    []trace.RoundRecord
}

// hashRoundRecord folds one round record into h bit-exactly.
func hashRoundRecord(h hash.Hash64, r *trace.RoundRecord) {
	hashInts(h, r.Episode, r.Round, r.Participants, r.Completed)
	hashFloats(h, r.Payment, r.Accuracy)
	hashFloats(h, r.Prices...)
	hashFloats(h, r.Freqs...)
	hashFloats(h, r.Times...)
	for _, o := range r.Outcomes {
		h.Write([]byte(o))
	}
}

// Digest returns a ULP-sensitive FNV-1a fingerprint over every episode
// summary and every per-round vector of the set.
func (s *EpisodeSet) Digest() string {
	h := fnv.New64a()
	h.Write([]byte(s.Scenario))
	h.Write([]byte(s.Mechanism))
	hashFloats(h, s.Budget)
	hashInts(h, len(s.Episodes), len(s.Rounds))
	for _, e := range s.Episodes {
		hashResult(h, e)
	}
	for i := range s.Rounds {
		hashRoundRecord(h, &s.Rounds[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RecordRun is one open recording cell: a CellRun compiled on a
// draw-capturing environment, whose recorded evaluation runs one episode at
// a time so a hosted session can pause between episodes. Training goes
// through the embedded CellRun. Per evaluation episode the trace carries
// every round's environment draws, the committed round records, and the
// episode summary. The versioned header (spec + post-training checkpoint,
// marshalled straight from the mechanism's checkpoint value) is written
// lazily before the first recorded episode, after training has finished.
type RecordRun struct {
	*CellRun
	rec        *recorder
	accRng     *rand.Rand
	tw         *trace.Writer
	headerDone bool
	out        *EpisodeSet
}

// StartRecord validates the spec, resolves the recorded cell (mech "" = the
// spec's first mechanism, budget 0 = its first budget), and compiles the
// draw-capturing environment and mechanism. The caller then trains the
// cell (Train, or TrainEpisode until TrainRemaining reaches zero), records
// episodes 1..Episodes() in order, and Finishes.
func StartRecord(s *Spec, mech string, budget float64, tw *trace.Writer) (*RecordRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if mech == "" {
		mech = s.Mechanisms[0]
	}
	kind, err := MechanismKind(mech)
	if err != nil {
		return nil, err
	}
	if budget == 0 {
		budget = s.Budgets[0]
	}
	rec := &recorder{}
	run, accRng, err := openCell(s, Cell{Mechanism: kind.String(), Kind: kind, Budget: budget}, envHooks{recorder: rec})
	if err != nil {
		return nil, err
	}
	return &RecordRun{
		CellRun: run, rec: rec, accRng: accRng, tw: tw,
		out: &EpisodeSet{Scenario: s.Name, Mechanism: kind.String(), Budget: budget},
	}, nil
}

// Episodes reports how many evaluation episodes the recording covers.
func (r *RecordRun) Episodes() int { return r.spec.EvalEpisodes }

// writeHeader emits the versioned trace header: the spec and the
// mechanism's post-training checkpoint. Called once, lazily, before the
// first recorded episode.
func (r *RecordRun) writeHeader() error {
	header := trace.HeaderRecord{
		Mechanism:    r.cell.Mechanism,
		Budget:       r.cell.Budget,
		Seed:         r.spec.Seed,
		Nodes:        r.spec.NumNodes(),
		EvalEpisodes: r.spec.EvalEpisodes,
	}
	var err error
	if header.Scenario, err = json.Marshal(r.spec); err != nil {
		return fmt.Errorf("scenario: marshal spec: %w", err)
	}
	if cp, ok := r.m.(mechanism.Checkpointer); ok {
		ck, err := cp.Checkpoint()
		if err != nil {
			return fmt.Errorf("scenario: checkpoint: %w", err)
		}
		if header.Checkpoint, err = json.Marshal(ck); err != nil {
			return fmt.Errorf("scenario: marshal checkpoint: %w", err)
		}
	}
	if err := r.tw.WriteHeader(header); err != nil {
		return err
	}
	r.headerDone = true
	return nil
}

// RecordEpisode plays evaluation episode ep (1-based, in order) with draw
// capture armed and streams its draws, round records, and summary to the
// trace. Before the episode the accuracy RNG is reseeded from
// evalSeed(seed, ep), making each episode's measurement-noise stream
// independently reproducible: the exact discipline Replay repeats.
func (r *RecordRun) RecordEpisode(ep int) (mechanism.EpisodeResult, error) {
	if !r.headerDone {
		if r.TrainRemaining() > 0 {
			return mechanism.EpisodeResult{}, fmt.Errorf("scenario: recording with %d training episodes owed", r.TrainRemaining())
		}
		if err := r.writeHeader(); err != nil {
			return mechanism.EpisodeResult{}, err
		}
	}
	if want := len(r.out.Episodes) + 1; ep != want {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: record episode %d out of order (want %d)", ep, want)
	}
	r.accRng.Seed(evalSeed(r.spec.Seed, ep))
	r.rec.begin(ep)
	res, err := r.m.RunEpisode(false)
	if err != nil {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: record episode %d: %w", ep, err)
	}
	res.Episode = ep
	for _, d := range r.rec.recs {
		if err := r.tw.WriteDraws(d); err != nil {
			return mechanism.EpisodeResult{}, err
		}
	}
	rounds := r.m.Env().Ledger().Rounds()
	for i := range rounds {
		if err := r.tw.WriteRound(ep, &rounds[i]); err != nil {
			return mechanism.EpisodeResult{}, err
		}
		r.out.Rounds = append(r.out.Rounds, trace.NewRoundRecord(ep, &rounds[i]))
	}
	if err := r.tw.WriteEpisode(res); err != nil {
		return mechanism.EpisodeResult{}, err
	}
	r.out.Episodes = append(r.out.Episodes, res)
	return res, nil
}

// Finish disarms the recorder, flushes the trace, and returns the recorded
// episode set.
func (r *RecordRun) Finish() (*EpisodeSet, error) {
	r.rec.enabled = false
	if err := r.tw.Flush(); err != nil {
		return nil, err
	}
	return r.out, nil
}
