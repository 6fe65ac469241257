package rl

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/mat"
)

func smallPair(t *testing.T, name string, seed int64, cfg PPOConfig) *Pair {
	t.Helper()
	agent, err := NewPPO(rand.New(rand.NewSource(seed)), 2, 1, cfg)
	if err != nil {
		t.Fatalf("NewPPO: %v", err)
	}
	return NewPair(name, agent)
}

func smallCfg() PPOConfig {
	cfg := DefaultPPOConfig()
	cfg.Hidden = []int{4}
	cfg.UpdateEpochs = 1
	return cfg
}

func sampleTransition(reward float64, done bool) Transition {
	return Transition{
		State:     []float64{0.1, 0.2},
		Action:    []float64{0.3},
		Reward:    reward,
		NextState: []float64{0.4, 0.5},
		Done:      done,
		LogProb:   -0.7,
	}
}

// ---------------------------------------------------------------------------
// Buffer reuse.

func TestBufferResetReusesStorage(t *testing.T) {
	var b Buffer
	tr := sampleTransition(1, false)
	// Warm up to steady state: one episode's worth of slots, then Reset.
	for i := 0; i < 8; i++ {
		b.Add(tr)
	}
	b.Reset()
	allocs := testing.AllocsPerRun(200, func() {
		if b.Len() == 8 {
			b.Reset()
		}
		b.Add(tr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %v times per run, want 0", allocs)
	}
}

func TestBufferAddCopiesSlices(t *testing.T) {
	var b Buffer
	tr := sampleTransition(1, false)
	b.Add(tr)
	tr.State[0] = 99
	if b.Transitions()[0].State[0] == 99 {
		t.Fatal("buffer aliased the caller's state slice")
	}
}

func TestBufferMarkLastDone(t *testing.T) {
	var b Buffer
	b.MarkLastDone() // no-op on empty
	b.Add(sampleTransition(1, false))
	b.Add(sampleTransition(2, false))
	b.MarkLastDone()
	tr := b.Transitions()
	if tr[0].Done || !tr[1].Done {
		t.Fatalf("done flags %v/%v, want false/true", tr[0].Done, tr[1].Done)
	}
}

// ---------------------------------------------------------------------------
// Counting RNG source.

func TestCountingSourceMatchesStdStream(t *testing.T) {
	a := rand.New(NewCountingSource(5))
	b := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
}

func TestCountingSourceRestoreResumesExactly(t *testing.T) {
	src := NewCountingSource(11)
	rng := rand.New(src)
	for i := 0; i < 7; i++ {
		rng.Float64()
	}
	st := src.State()
	if st.Seed != 11 || st.Draws == 0 {
		t.Fatalf("state %+v", st)
	}
	want := make([]float64, 5)
	for i := range want {
		want[i] = rng.Float64()
	}

	restored := NewCountingSource(0)
	if err := restored.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rng2 := rand.New(restored)
	for i := range want {
		if got := rng2.Float64(); got != want[i] {
			t.Fatalf("resumed draw %d: %v != %v", i, got, want[i])
		}
	}
	if restored.State() != src.State() {
		t.Fatalf("draw counters diverged: %+v vs %+v", restored.State(), src.State())
	}
}

func TestCountingSourceSeedResetsCounter(t *testing.T) {
	src := NewCountingSource(1)
	rand.New(src).Float64()
	src.Seed(2)
	if st := src.State(); st.Seed != 2 || st.Draws != 0 {
		t.Fatalf("state after reseed %+v", st)
	}
}

// ---------------------------------------------------------------------------
// Pair and Scheduler.

func TestPairStoreScalesReward(t *testing.T) {
	p := smallPair(t, "agent", 1, smallCfg())
	p.Store(sampleTransition(4, false))
	if got := p.Buf.Transitions()[0].Reward; got != 0.04 {
		t.Fatalf("stored reward %v, want 0.04", got)
	}
}

// TestSchedulerDecayFirstBatchesAcrossEpisodes: in DecayFirst mode every
// episode ticks the decay schedule, even one the MinSamples gate defers,
// so 20 gated episodes decay the learning rate with no update run.
func TestSchedulerDecayFirstBatchesAcrossEpisodes(t *testing.T) {
	inner := smallPair(t, "inner", 1, smallCfg())
	exterior := smallPair(t, "exterior", 2, smallCfg())
	s := &Scheduler{Pairs: []*Pair{inner, exterior}, MinSamples: 4, DecayFirst: true}

	lr0 := exterior.Agent.Snapshot().ActorLR
	// Below the gate: decay ticks, experience is retained.
	exterior.Store(sampleTransition(1, true))
	exterior.Store(sampleTransition(1, true))
	for ep := 1; ep <= lrDecayEvery; ep++ {
		if err := s.EndEpisode(); err != nil {
			t.Fatalf("EndEpisode: %v", err)
		}
		want := lr0
		if ep == lrDecayEvery {
			want = lr0 * lrDecayFactor
		}
		if got := exterior.Agent.Snapshot().ActorLR; got != want {
			t.Fatalf("decay-first LR after %d gated episodes %v, want %v", ep, got, want)
		}
	}
	if exterior.Buf.Len() != 2 {
		t.Fatalf("gated episodes flushed the buffer (len %d)", exterior.Buf.Len())
	}
	// Reaching the gate flushes every non-empty pair and resets all buffers.
	exterior.Store(sampleTransition(1, true))
	exterior.Store(sampleTransition(1, true))
	inner.Store(sampleTransition(1, true))
	if err := s.EndEpisode(); err != nil {
		t.Fatalf("EndEpisode: %v", err)
	}
	if exterior.Buf.Len() != 0 || inner.Buf.Len() != 0 {
		t.Fatalf("buffers not reset: %d/%d", exterior.Buf.Len(), inner.Buf.Len())
	}
}

// TestSchedulerUpdateThenDecaySkipsEmptyEpisodes: in update-then-decay
// mode an episode without samples runs no update and no decay tick, so the
// 20th tick, and with it the decay, waits for the 20th episode that
// updated.
func TestSchedulerUpdateThenDecaySkipsEmptyEpisodes(t *testing.T) {
	p := smallPair(t, "agent", 1, smallCfg())
	s := &Scheduler{Pairs: []*Pair{p}, MinSamples: 1}

	lr0 := p.Agent.Snapshot().ActorLR
	for ep := 1; ep < lrDecayEvery; ep++ {
		p.Store(sampleTransition(1, true))
		if err := s.EndEpisode(); err != nil {
			t.Fatalf("EndEpisode: %v", err)
		}
		if p.Buf.Len() != 0 {
			t.Fatalf("buffer not reset after update: %d", p.Buf.Len())
		}
	}
	// Empty episode: no update, and crucially no decay tick either. A
	// decay-first schedule would decay here.
	if err := s.EndEpisode(); err != nil {
		t.Fatalf("EndEpisode: %v", err)
	}
	if got := p.Agent.Snapshot().ActorLR; got != lr0 {
		t.Fatalf("empty episode ticked decay: LR %v, want %v", got, lr0)
	}
	p.Store(sampleTransition(1, true))
	if err := s.EndEpisode(); err != nil {
		t.Fatalf("EndEpisode: %v", err)
	}
	if got := p.Agent.Snapshot().ActorLR; got != lr0*lrDecayFactor {
		t.Fatalf("update-then-decay LR %v, want %v", got, lr0*lrDecayFactor)
	}
}

func TestSchedulerRejectsNoPairs(t *testing.T) {
	s := &Scheduler{}
	if err := s.EndEpisode(); err == nil {
		t.Fatal("scheduler with no pairs did not error")
	}
}

// TestSchedulerReportsErrorsInPairOrder pins the concurrent flush's error
// contract: when several pairs fail, the first in Pairs order is reported,
// whether the updates ran serially or side by side.
func TestSchedulerReportsErrorsInPairOrder(t *testing.T) {
	defer mat.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		inner := smallPair(t, "inner", 1, smallCfg())
		exterior := smallPair(t, "exterior", 2, smallCfg())
		for _, p := range []*Pair{inner, exterior} {
			bad := sampleTransition(1, true)
			bad.State = []float64{0.1}
			p.Store(sampleTransition(1, false))
			p.Store(bad)
		}
		s := &Scheduler{Pairs: []*Pair{inner, exterior}, MinSamples: 1, DecayFirst: true}
		err := s.EndEpisode()
		if err == nil || !strings.Contains(err.Error(), "rl: inner update") {
			t.Fatalf("workers=%d: EndEpisode error %v, want the inner pair's", workers, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Unified checkpoint.

func snapshotJSON(t *testing.T, s *Snapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return string(data)
}

func TestPairStateRoundTrip(t *testing.T) {
	cfg := smallCfg()
	src := smallPair(t, "agent", 3, cfg)
	src.Store(sampleTransition(1, false))
	src.Store(sampleTransition(2, true))
	st := PairState(src)
	if st.Name != "agent" || st.Snapshot == nil || len(st.Buffer) != 2 {
		t.Fatalf("pair state %+v", st)
	}

	dst := smallPair(t, "agent", 4, cfg) // different init weights
	if err := RestorePair(dst, &st); err != nil {
		t.Fatalf("RestorePair: %v", err)
	}
	if got, want := snapshotJSON(t, dst.Agent.Snapshot()), snapshotJSON(t, src.Agent.Snapshot()); got != want {
		t.Fatal("restored agent snapshot differs from source")
	}
	if dst.Buf.Len() != 2 || dst.Buf.Transitions()[1].Reward != 2*rewardScale {
		t.Fatalf("restored buffer %d transitions", dst.Buf.Len())
	}
	// The carried buffer must be a deep copy, not an alias of the source.
	src.Buf.Transitions()[1].State[0] = 42
	if dst.Buf.Transitions()[1].State[0] == 42 {
		t.Fatal("restored buffer aliases the checkpoint state")
	}

	if err := RestorePair(dst, nil); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("nil state: err %v, want ErrCorruptCheckpoint", err)
	}
	if err := RestorePair(dst, &AgentState{Name: "agent"}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("nil snapshot: err %v, want ErrCorruptCheckpoint", err)
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	p := smallPair(t, "agent", 3, smallCfg())
	p.Store(sampleTransition(1, true))
	ck := &Checkpoint{
		Mechanism: "test",
		Nodes:     2,
		StateDim:  2,
		Episode:   7,
		RNG:       &RNGState{Seed: 3, Draws: 11},
		Agents:    []AgentState{PairState(p)},
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if got.Mechanism != "test" || got.Nodes != 2 || got.Episode != 7 || got.RNG == nil || got.RNG.Draws != 11 {
		t.Fatalf("loaded header %+v", got)
	}
	if a := got.Agent("agent"); a == nil || a.Snapshot == nil || len(a.Buffer) != 1 {
		t.Fatalf("loaded agent %+v", got.Agent("agent"))
	}
	if got.Agent("missing") != nil {
		t.Fatal("Agent lookup invented an agent")
	}
}

func TestLoadCheckpointCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{\"agents\": ["), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err %v, want ErrCorruptCheckpoint", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json")); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("missing file: err %v, want plain I/O error", err)
	}
}
