package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"chiron/internal/rl"
	"chiron/internal/trace"
)

// record runs one cell of s through the StartRecord step API —
// training, then every evaluation episode — and streams its trace to tw.
func record(s *Spec, tw *trace.Writer) (*EpisodeSet, error) {
	run, err := StartRecord(s, "", 0, tw)
	if err != nil {
		return nil, err
	}
	if err := run.Train(CellHooks{}); err != nil {
		return nil, err
	}
	for ep := 1; ep <= run.Episodes(); ep++ {
		if _, err := run.RecordEpisode(ep); err != nil {
			return nil, err
		}
	}
	return run.Finish()
}

// recordToTrace records one cell of the named library scenario into memory
// and parses the trace back.
func recordToTrace(t *testing.T, name string) (*Spec, *trace.Trace, *EpisodeSet) {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("library scenario %q missing", name)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rec, err := record(s, tw)
	if err != nil {
		t.Fatalf("record(%s): %v", name, err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("read recorded trace: %v", err)
	}
	return s, tr, rec
}

// TestSameMechanismReplayBitIdentical is the replay engine's core contract,
// exercised on every environment regime the library covers: replaying a
// recording with the recorded mechanism and budget reproduces every episode
// summary and every per-round vector bit-for-bit.
func TestSameMechanismReplayBitIdentical(t *testing.T) {
	for _, name := range []string{
		"paper-baseline",   // clean fleet, no draws at all
		"flaky-network",    // availability + jitter draws
		"churny-fleet",     // sampled churn over a flaky network
		"flash-crowd",      // churn windows plus a trained Greedy policy
		"faulty-fleet",     // injected faults under a deadline
		"congested-uplink", // time-varying bandwidth regime
	} {
		t.Run(name, func(t *testing.T) {
			_, tr, rec := recordToTrace(t, name)
			rep, err := Replay(tr, ReplayOptions{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if rep.Counterfactual {
				t.Errorf("zero-option replay marked counterfactual")
			}
			if !reflect.DeepEqual(rep.Episodes, rec.Episodes) {
				t.Errorf("episode results differ\n got %+v\nwant %+v", rep.Episodes, rec.Episodes)
			}
			if !reflect.DeepEqual(rep.Rounds, rec.Rounds) {
				t.Errorf("round records differ (%d vs %d rounds)", len(rep.Rounds), len(rec.Rounds))
			}
			if rep.Digest() != rec.Digest() {
				t.Errorf("digest: replay %s, recording %s", rep.Digest(), rec.Digest())
			}
		})
	}
}

// TestReplayIsDeterministic: two replays of the same trace agree exactly.
func TestReplayIsDeterministic(t *testing.T) {
	_, tr, _ := recordToTrace(t, "flaky-network")
	a, err := Replay(tr, ReplayOptions{Mechanism: "equal-time"})
	if err != nil {
		t.Fatalf("replay a: %v", err)
	}
	b, err := Replay(tr, ReplayOptions{Mechanism: "equal-time"})
	if err != nil {
		t.Fatalf("replay b: %v", err)
	}
	if a.Digest() != b.Digest() {
		t.Errorf("counterfactual replay not deterministic: %s vs %s", a.Digest(), b.Digest())
	}
}

// TestCounterfactualMechanism replays a Uniform recording with EqualTime:
// the run must succeed against the pinned draws, be flagged counterfactual,
// and actually differ from the recording.
func TestCounterfactualMechanism(t *testing.T) {
	_, tr, rec := recordToTrace(t, "flaky-network")
	rep, err := Replay(tr, ReplayOptions{Mechanism: "equal-time"})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rep.Counterfactual {
		t.Errorf("mechanism override not marked counterfactual")
	}
	if rep.Mechanism != "EqualTime-Oracle" {
		t.Errorf("replayed mechanism %q", rep.Mechanism)
	}
	if rep.Digest() == rec.Digest() {
		t.Errorf("different mechanism produced the recording's digest %s", rec.Digest())
	}
	if len(rep.Episodes) != len(rec.Episodes) {
		t.Errorf("replayed %d episodes, recorded %d", len(rep.Episodes), len(rec.Episodes))
	}
}

// TestCounterfactualBudgetOutlivesTape doubles the recorded budget: the
// replayed episodes run far past the end of the recorded draws, exercising
// the deterministic tape extension, and the counterfactual ledger must
// reflect the bigger purse.
func TestCounterfactualBudgetOutlivesTape(t *testing.T) {
	_, tr, rec := recordToTrace(t, "flaky-network")
	rep, err := Replay(tr, ReplayOptions{Budget: 2 * rec.Budget})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rep.Counterfactual {
		t.Errorf("budget override not marked counterfactual")
	}
	if rep.Episodes[0].Rounds <= rec.Episodes[0].Rounds {
		t.Errorf("doubled budget played %d rounds, recorded run played %d — tape extension never engaged",
			rep.Episodes[0].Rounds, rec.Episodes[0].Rounds)
	}
	if rep.Episodes[0].BudgetSpent <= rec.Episodes[0].BudgetSpent {
		t.Errorf("doubled budget spent %v <= recorded %v",
			rep.Episodes[0].BudgetSpent, rec.Episodes[0].BudgetSpent)
	}
	// The extension must itself be deterministic.
	again, err := Replay(tr, ReplayOptions{Budget: 2 * rec.Budget})
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if again.Digest() != rep.Digest() {
		t.Errorf("tape extension not deterministic: %s vs %s", again.Digest(), rep.Digest())
	}
}

// TestCounterfactualTrainedMechanism replays a Greedy recording with the
// same kind restored from the checkpoint, and with a Uniform override —
// covering the checkpoint-restore and no-training counterfactual paths on
// a trained recording.
func TestCounterfactualTrainedMechanism(t *testing.T) {
	_, tr, rec := recordToTrace(t, "flash-crowd")
	if len(tr.Header.Checkpoint) == 0 {
		t.Fatalf("trained Greedy recording carries no checkpoint")
	}
	same, err := Replay(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("same-mechanism replay: %v", err)
	}
	if same.Digest() != rec.Digest() {
		t.Errorf("trained same-mechanism replay drifted: %s vs %s", same.Digest(), rec.Digest())
	}
	uni, err := Replay(tr, ReplayOptions{Mechanism: "uniform"})
	if err != nil {
		t.Fatalf("uniform counterfactual: %v", err)
	}
	if uni.Digest() == rec.Digest() {
		t.Errorf("uniform counterfactual reproduced the Greedy digest")
	}
}

// TestReplayRequiresHeader: plain training traces (no header) are not
// replayable and must say so.
func TestReplayRequiresHeader(t *testing.T) {
	if _, err := Replay(&trace.Trace{}, ReplayOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no header") {
		t.Errorf("headerless replay error = %v", err)
	}
}

// TestReplayRejectsDamagedCheckpoint: a recorded checkpoint that is torn
// fails as corrupt, and one pinned to another fleet shape fails as a shape
// mismatch, both before any episode replays.
func TestReplayRejectsDamagedCheckpoint(t *testing.T) {
	_, tr, _ := recordToTrace(t, "flash-crowd") // trained Greedy: carries a checkpoint
	good := tr.Header.Checkpoint
	if len(good) == 0 {
		t.Fatal("recorded trace carries no checkpoint")
	}
	tr.Header.Checkpoint = good[:len(good)/2]
	if _, err := Replay(tr, ReplayOptions{}); !errors.Is(err, rl.ErrCorruptCheckpoint) {
		t.Errorf("torn checkpoint: err %v, want ErrCorruptCheckpoint", err)
	}
	ck, err := rl.ParseCheckpoint(good)
	if err != nil {
		t.Fatal(err)
	}
	ck.Nodes++
	if tr.Header.Checkpoint, err = json.Marshal(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(tr, ReplayOptions{}); !errors.Is(err, rl.ErrShapeMismatch) {
		t.Errorf("wrong-shape checkpoint: err %v, want ErrShapeMismatch", err)
	}
}

// TestRecordHeader checks the header embeds everything a replay needs.
func TestRecordHeader(t *testing.T) {
	s, tr, _ := recordToTrace(t, "flaky-network")
	h := tr.Header
	if h == nil {
		t.Fatal("recorded trace has no header")
	}
	if h.Version != trace.Version {
		t.Errorf("header version %d, want %d", h.Version, trace.Version)
	}
	if h.Mechanism != "Uniform" || h.Budget != s.Budgets[0] || h.Seed != s.Seed {
		t.Errorf("header = %s η=%v seed=%d, want %s η=%v seed=%d",
			h.Mechanism, h.Budget, h.Seed, "Uniform", s.Budgets[0], s.Seed)
	}
	if h.Nodes != s.NumNodes() || h.EvalEpisodes != s.EvalEpisodes {
		t.Errorf("header nodes=%d eval=%d", h.Nodes, h.EvalEpisodes)
	}
	embedded, err := Parse(h.Scenario)
	if err != nil {
		t.Fatalf("embedded spec: %v", err)
	}
	if embedded.Name != s.Name {
		t.Errorf("embedded spec %q, want %q", embedded.Name, s.Name)
	}
	if len(tr.Draws) == 0 {
		t.Error("recorded trace has no draw records")
	}
	if len(tr.Rounds) == 0 || len(tr.Episodes) != s.EvalEpisodes {
		t.Errorf("recorded trace has %d rounds, %d episodes", len(tr.Rounds), len(tr.Episodes))
	}
}

// TestRecorderAttachmentIsFree: building an environment with a (disabled)
// recorder attached must not change what plays out — the recorder forces
// round.Respond's draw pre-pass, which consumes no RNG and alters no
// results. This is the property that lets Record train with the recorder
// attached and still produce the same policy an unrecorded run would.
func TestRecorderAttachmentIsFree(t *testing.T) {
	for _, name := range []string{"paper-baseline", "flaky-network", "churny-fleet"} {
		t.Run(name, func(t *testing.T) {
			s, _ := Lookup(name)
			run := func(hooks envHooks) []float64 {
				env, _, err := s.BuildEnv(s.Budgets[0], hooks)
				if err != nil {
					t.Fatalf("build env: %v", err)
				}
				if err := env.Reset(); err != nil {
					t.Fatalf("reset: %v", err)
				}
				prices := make([]float64, env.NumNodes())
				var accs []float64
				for i := range prices {
					prices[i] = env.MaxTotalPrice() / float64(2*len(prices))
				}
				for !env.Done() {
					res, err := env.Step(prices)
					if err != nil {
						t.Fatalf("step: %v", err)
					}
					accs = append(accs, res.Round.Accuracy)
				}
				return accs
			}
			plain := run(envHooks{})
			recorded := run(envHooks{recorder: &recorder{}})
			if !reflect.DeepEqual(plain, recorded) {
				t.Errorf("disabled recorder changed the episode: %d vs %d rounds", len(plain), len(recorded))
			}
		})
	}
}
