package scenario

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"

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

// Record trains one cell of the spec and records its evaluation to tw as a
// replayable trace. The cell is resolved from mech ("" = the spec's first
// mechanism) and budget (0 = its first budget) and compiled on a
// draw-capturing environment. Record trains it through CellRun.Train, then
// writes the versioned header (the spec and the mechanism's post-training
// checkpoint, marshalled straight from its checkpoint value), then records
// evaluation episodes 1..EvalEpisodes. Per episode the trace carries every
// round's environment draws, the committed round records, and the episode
// summary. Before each episode the accuracy RNG is reseeded from
// evalSeed(seed, ep), making each episode's measurement-noise stream
// independently reproducible: the exact discipline Replay repeats. Record
// flushes tw; the caller owns Close.
func Record(s *Spec, mech string, budget float64, tw *trace.Writer) (*EpisodeSet, error) {
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
	if err := run.Train(CellHooks{}); err != nil {
		return nil, err
	}
	if err := writeHeader(tw, s, run.cell, run.m); err != nil {
		return nil, err
	}
	out := &EpisodeSet{Scenario: s.Name, Mechanism: kind.String(), Budget: budget}
	for ep := 1; ep <= s.EvalEpisodes; ep++ {
		accRng.Seed(evalSeed(s.Seed, ep))
		rec.begin(ep)
		res, err := run.m.RunEpisode(false)
		if err != nil {
			return nil, fmt.Errorf("scenario: record episode %d: %w", ep, err)
		}
		res.Episode = ep
		for _, d := range rec.recs {
			if err := tw.WriteDraws(d); err != nil {
				return nil, err
			}
		}
		rounds := run.m.Env().Ledger().Rounds()
		for i := range rounds {
			if err := tw.WriteRound(ep, &rounds[i]); err != nil {
				return nil, err
			}
			out.Rounds = append(out.Rounds, trace.NewRoundRecord(ep, &rounds[i]))
		}
		if err := tw.WriteEpisode(res); err != nil {
			return nil, err
		}
		out.Episodes = append(out.Episodes, res)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// writeHeader emits the versioned trace header of a recording of cell c:
// the spec and mechanism m's post-training checkpoint.
func writeHeader(tw *trace.Writer, s *Spec, c Cell, m mechanism.Mechanism) error {
	header := trace.HeaderRecord{
		Mechanism:    c.Mechanism,
		Budget:       c.Budget,
		Seed:         s.Seed,
		Nodes:        s.NumNodes(),
		EvalEpisodes: s.EvalEpisodes,
	}
	var err error
	if header.Scenario, err = json.Marshal(s); err != nil {
		return fmt.Errorf("scenario: marshal spec: %w", err)
	}
	if cp, ok := m.(mechanism.Checkpointer); ok {
		ck, err := cp.Checkpoint()
		if err != nil {
			return fmt.Errorf("scenario: checkpoint: %w", err)
		}
		if header.Checkpoint, err = json.Marshal(ck); err != nil {
			return fmt.Errorf("scenario: marshal checkpoint: %w", err)
		}
	}
	return tw.WriteHeader(header)
}
