package scenario

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"

	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
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

// saveCheckpointBytes round-trips a mechanism checkpoint through a temp
// file (the Checkpointer surface is path-based) and returns its JSON.
func saveCheckpointBytes(cp mechanism.Checkpointer) (json.RawMessage, error) {
	f, err := os.CreateTemp("", "chiron-ckpt-*.json")
	if err != nil {
		return nil, fmt.Errorf("scenario: checkpoint temp: %w", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := cp.SaveCheckpoint(path); err != nil {
		return nil, fmt.Errorf("scenario: save checkpoint: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read checkpoint: %w", err)
	}
	return data, nil
}

// loadCheckpointBytes restores a checkpoint blob into cp via a temp file.
func loadCheckpointBytes(cp mechanism.Checkpointer, data []byte) error {
	f, err := os.CreateTemp("", "chiron-ckpt-*.json")
	if err != nil {
		return fmt.Errorf("scenario: checkpoint temp: %w", err)
	}
	path := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("scenario: write checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("scenario: write checkpoint: %w", err)
	}
	defer os.Remove(path)
	if err := cp.LoadCheckpoint(path); err != nil {
		return fmt.Errorf("scenario: load checkpoint: %w", err)
	}
	return nil
}

// RecordRun is one open recording cell: a draw-capturing environment and
// mechanism whose execution is exposed as resumable steps — one training
// episode at a time, then one recorded evaluation episode at a time — so a
// hosted session can pause between episodes. Per evaluation episode the
// trace carries every round's environment draws, the committed round
// records, and the episode summary. The versioned header (spec +
// post-training checkpoint) is written lazily before the first recorded
// episode, after training has finished.
type RecordRun struct {
	spec       *Spec
	kind       experiment.MechanismKind
	budget     float64
	rec        *recorder
	env        *edgeenv.Env
	accRng     *rand.Rand
	m          mechanism.Mechanism
	tw         *trace.Writer
	trained    int
	headerDone bool
	out        *EpisodeSet
}

// StartRecord validates the spec, resolves the recorded cell (mech "" = the
// spec's first mechanism, budget 0 = its first budget), and compiles the
// draw-capturing environment and mechanism. The caller then drains
// TrainEpisode until TrainRemaining reaches zero, records episodes
// 1..Episodes() in order, and Finishes.
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
	env, accRng, err := s.BuildEnv(budget, envHooks{recorder: rec})
	if err != nil {
		return nil, err
	}
	m, err := experiment.BuildMechanism(kind, env, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: mechanism: %w", err)
	}
	return &RecordRun{
		spec: s, kind: kind, budget: budget,
		rec: rec, env: env, accRng: accRng, m: m, tw: tw,
		out: &EpisodeSet{Scenario: s.Name, Mechanism: kind.String(), Budget: budget},
	}, nil
}

// Mechanism returns the recorded cell's live mechanism.
func (r *RecordRun) Mechanism() mechanism.Mechanism { return r.m }

// Episodes reports how many evaluation episodes the recording covers.
func (r *RecordRun) Episodes() int { return r.spec.EvalEpisodes }

// TrainRemaining reports how many training episodes are still owed before
// the recorded evaluation may begin.
func (r *RecordRun) TrainRemaining() int {
	if _, ok := r.m.(mechanism.Trainable); !ok {
		return 0
	}
	return r.spec.TrainEpisodes - r.trained
}

// TrainEpisode runs the next single training episode with capture disabled.
func (r *RecordRun) TrainEpisode() (mechanism.EpisodeResult, error) {
	if r.headerDone {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: training after recording started")
	}
	t, ok := r.m.(mechanism.Trainable)
	if !ok {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: %s is not trainable", r.m.Name())
	}
	res, err := t.Train(1, nil)
	if err != nil {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: train %s: %w", r.m.Name(), err)
	}
	r.trained++
	return res[0], nil
}

// writeHeader emits the versioned trace header: the spec and the
// mechanism's post-training checkpoint. Called once, lazily, before the
// first recorded episode.
func (r *RecordRun) writeHeader() error {
	header := trace.HeaderRecord{
		Mechanism:    r.kind.String(),
		Budget:       r.budget,
		Seed:         r.spec.Seed,
		Nodes:        r.spec.NumNodes(),
		EvalEpisodes: r.spec.EvalEpisodes,
	}
	var err error
	if header.Scenario, err = json.Marshal(r.spec); err != nil {
		return fmt.Errorf("scenario: marshal spec: %w", err)
	}
	if cp, ok := r.m.(mechanism.Checkpointer); ok {
		if header.Checkpoint, err = saveCheckpointBytes(cp); err != nil {
			return err
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
	rounds := r.env.Ledger().Rounds()
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
