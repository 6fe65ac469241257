package scenario

import (
	"fmt"
	"math"

	"chiron/internal/faults"
	"chiron/internal/round"
	"chiron/internal/trace"
)

// The tape derives its draws from faults.SplitMix64 under its own salts,
// so tape streams stay uncorrelated with fault draws: evalSalt decorrelates
// the per-episode accuracy reseed from every per-cell stream; availSalt and
// jitterSalt give the overrun extension independent availability and
// jitter draws per (episode, round, node) cell.
const (
	evalSalt   = 0x6c62272e07bb0142
	availSalt  = 0x9ae16a3b2f90404f
	jitterSalt = 0xc3a5c85c97cb3127
)

// evalSeed derives the accuracy-RNG seed for one evaluation episode.
// Record and Replay both reseed the curve's RNG with it before episode ep,
// so the measurement-noise stream of an episode is a pure function of
// (spec seed, episode) — independent of how many draws training consumed.
func evalSeed(seed int64, ep int) int64 {
	h := faults.SplitMix64(uint64(seed) ^ evalSalt)
	h = faults.SplitMix64(h ^ uint64(ep)*0x9e3779b97f4a7c15)
	return int64(h & math.MaxInt64)
}

// cellUnit returns a uniform draw in [0,1) for one (episode, round, node)
// cell under a salt — the overrun extension's RNG.
func cellUnit(seed int64, salt uint64, episode, roundIndex, node int) float64 {
	h := faults.SplitMix64(uint64(seed) ^ salt)
	h = faults.SplitMix64(h ^ uint64(episode)*0xbf58476d1ce4e5b9)
	h = faults.SplitMix64(h ^ uint64(roundIndex)*0x9e3779b97f4a7c15)
	h = faults.SplitMix64(h ^ uint64(node)*0x94d049bb133111eb)
	return float64(h>>11) / (1 << 53)
}

// recorder buffers each round's resolved draw columns during a recorded
// evaluation episode. It implements round.DrawRecorder; Record drains the
// buffer into the trace writer after every episode. Training episodes run
// with the recorder attached but disabled — the attachment alone forces
// round.Respond's draw pre-pass, which consumes no RNG and changes no
// results, so the recorded evaluation is bit-identical to an unrecorded
// one.
type recorder struct {
	episode int
	enabled bool
	recs    []trace.DrawsRecord
}

var _ round.DrawRecorder = (*recorder)(nil)

// RecordDraws implements round.DrawRecorder. The pipeline owns and reuses
// the slices, so the record copies them.
func (r *recorder) RecordDraws(roundIndex int, eligible, departing []bool, commTimes []float64) {
	if !r.enabled {
		return
	}
	rec := trace.DrawsRecord{
		Episode:   r.episode,
		Round:     roundIndex,
		Eligible:  append([]bool(nil), eligible...),
		CommTimes: append([]float64(nil), commTimes...),
	}
	for _, d := range departing {
		if d {
			rec.Departing = append([]bool(nil), departing...)
			break
		}
	}
	r.recs = append(r.recs, rec)
}

// begin arms the recorder for one evaluation episode.
func (r *recorder) begin(ep int) {
	r.episode = ep
	r.enabled = true
	r.recs = r.recs[:0]
}

// tapeKey addresses one recorded round.
type tapeKey struct{ episode, round int }

// tape replays a recorded trace's environment draws as a round.DrawSource.
// For rounds the recording covers, the columns are returned verbatim — the
// property that makes same-mechanism replay bit-identical. A counterfactual
// mechanism or budget can outlive the recording (a cheaper policy plays
// more rounds before the budget runs out); those overrun rounds are
// extended deterministically: membership comes from the spec's pure churn
// schedule, and availability and jitter draws are hashed per
// (episode, round, node) cell, so the extension is a pure function of the
// spec — still replayable, never dependent on query order.
type tape struct {
	byKey   map[tapeKey]*trace.DrawsRecord
	episode int
	seed    int64

	// The spec-compiled environment model the overrun extension applies.
	churn        faults.ChurnSchedule
	availability float64
	jitter       float64
	bandwidth    round.BandwidthSchedule
	nominal      []float64 // the fleet's nominal comm-time column

	// Scratch columns reused across extended rounds.
	elig, dep []bool
	comm      []float64
}

var _ round.DrawSource = (*tape)(nil)

// newTape indexes a parsed trace's draw records and compiles the spec's
// environment model for the overrun extension. The fleet's nominal
// comm-time column is bound later (bindFleet) because the fleet itself is
// built by the environment the tape is attached to.
func newTape(tr *trace.Trace, spec *Spec) (*tape, error) {
	t := &tape{
		byKey:        make(map[tapeKey]*trace.DrawsRecord, len(tr.Draws)),
		seed:         spec.Seed,
		availability: spec.Availability,
		jitter:       spec.CommJitter,
		bandwidth:    spec.bandwidthSchedule(),
	}
	var err error
	if t.churn, err = spec.churnSchedule(); err != nil {
		return nil, err
	}
	for i := range tr.Draws {
		d := &tr.Draws[i]
		key := tapeKey{episode: d.Episode, round: d.Round}
		if _, dup := t.byKey[key]; dup {
			return nil, fmt.Errorf("scenario: trace has duplicate draws for episode %d round %d", d.Episode, d.Round)
		}
		t.byKey[key] = d
	}
	return t, nil
}

// bindFleet copies the environment fleet's nominal comm-time column, the
// base the overrun extension scales. Called once, after the taped
// environment is built.
func (t *tape) bindFleet(commTime []float64) {
	t.nominal = append([]float64(nil), commTime...)
}

// setEpisode selects which recorded episode's draws subsequent rounds read.
func (t *tape) setEpisode(ep int) { t.episode = ep }

// RoundDraws implements round.DrawSource.
func (t *tape) RoundDraws(roundIndex, n int) (eligible, departing []bool, commTimes []float64, err error) {
	if rec, ok := t.byKey[tapeKey{episode: t.episode, round: roundIndex}]; ok {
		if len(rec.Eligible) != n || len(rec.CommTimes) != n ||
			(rec.Departing != nil && len(rec.Departing) != n) {
			return nil, nil, nil, fmt.Errorf(
				"scenario: episode %d round %d draws sized %d/%d for %d nodes",
				t.episode, roundIndex, len(rec.Eligible), len(rec.CommTimes), n)
		}
		return rec.Eligible, rec.Departing, rec.CommTimes, nil
	}
	// Past the end of the tape: extend deterministically from the spec.
	if t.nominal == nil {
		return nil, nil, nil, fmt.Errorf("scenario: tape fleet not bound")
	}
	if len(t.nominal) != n {
		return nil, nil, nil, fmt.Errorf("scenario: tape covers %d nodes, round asked for %d", len(t.nominal), n)
	}
	if len(t.elig) != n {
		t.elig = make([]bool, n)
		t.dep = make([]bool, n)
		t.comm = make([]float64, n)
	}
	bw := 1.0
	if t.bandwidth != nil {
		bw = t.bandwidth.Factor(roundIndex)
	}
	availOn := t.availability > 0 && t.availability < 1
	for i := 0; i < n; i++ {
		t.elig[i] = false
		t.dep[i] = false
		t.comm[i] = 0
		present, departs := true, false
		if t.churn != nil {
			present, departs = t.churn.Membership(roundIndex, i)
		}
		if !present {
			continue
		}
		t.dep[i] = departs
		if availOn && cellUnit(t.seed, availSalt, t.episode, roundIndex, i) >= t.availability {
			continue
		}
		comm := t.nominal[i] * bw
		if t.jitter > 0 {
			u := cellUnit(t.seed, jitterSalt, t.episode, roundIndex, i)
			comm *= 1 + (u*2-1)*t.jitter
		}
		t.comm[i] = comm
		t.elig[i] = true
	}
	return t.elig, t.dep, t.comm, nil
}
