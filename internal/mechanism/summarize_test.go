package mechanism

import (
	"math"
	"math/rand"
	"testing"

	"chiron/internal/accuracy"
	"chiron/internal/device"
	"chiron/internal/edgeenv"
)

func summarizeEnv(t *testing.T) *edgeenv.Env {
	t.Helper()
	const nodes = 3
	fleet, err := device.NewFleetBatch(rand.New(rand.NewSource(3)), device.DefaultFleetSpec(nodes))
	if err != nil {
		t.Fatalf("NewFleetBatch: %v", err)
	}
	acc, err := accuracy.NewPresetCurve(rand.New(rand.NewSource(4)), accuracy.PresetMNIST, nodes)
	if err != nil {
		t.Fatalf("NewPresetCurve: %v", err)
	}
	env, err := edgeenv.New(edgeenv.DefaultConfig(fleet, acc, 80))
	if err != nil {
		t.Fatalf("edgeenv.New: %v", err)
	}
	return env
}

func TestSummarizeMatchesLedger(t *testing.T) {
	env := summarizeEnv(t)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	// Play a short episode by hand, accumulating the reward streams the
	// way a mechanism would.
	rng := rand.New(rand.NewSource(5))
	ext := NewReturns()
	var inner float64
	for i := 0; i < 4 && !env.Done(); i++ {
		res, err := env.Step(env.RandomPrices(rng))
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		ext.Add(res.ExteriorReward)
		inner += res.InnerReward
	}
	got := Summarize(env, 7, ext, inner)
	ledger := env.Ledger()
	cfg := env.Config()
	if got.Episode != 7 {
		t.Errorf("Episode %d, want 7", got.Episode)
	}
	if got.Rounds != ledger.NumRounds() {
		t.Errorf("Rounds %d, ledger has %d", got.Rounds, ledger.NumRounds())
	}
	if got.FinalAccuracy != ledger.FinalAccuracy() {
		t.Errorf("FinalAccuracy %v, ledger says %v", got.FinalAccuracy, ledger.FinalAccuracy())
	}
	if got.ExteriorReturn != ext.Undiscounted || got.DiscountedReturn != ext.Discounted {
		t.Errorf("returns (%v, %v), accumulator says (%v, %v)",
			got.ExteriorReturn, got.DiscountedReturn, ext.Undiscounted, ext.Discounted)
	}
	if got.InnerReturn != inner {
		t.Errorf("InnerReturn %v, want %v", got.InnerReturn, inner)
	}
	if got.TimeEfficiency != ledger.MeanTimeEfficiency() {
		t.Errorf("TimeEfficiency %v, ledger says %v", got.TimeEfficiency, ledger.MeanTimeEfficiency())
	}
	if got.TotalTime != ledger.TotalTime() {
		t.Errorf("TotalTime %v, ledger says %v", got.TotalTime, ledger.TotalTime())
	}
	if got.BudgetSpent != ledger.TotalSpent() {
		t.Errorf("BudgetSpent %v, ledger says %v", got.BudgetSpent, ledger.TotalSpent())
	}
	// The utility field must be the Eqn. (9) identity over the same ledger.
	want := cfg.Lambda*ledger.FinalAccuracy() - cfg.TimeWeight*ledger.TotalTime()
	if math.Abs(got.ServerUtility-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("ServerUtility %v, want λA−wT = %v", got.ServerUtility, want)
	}
}

func TestSummarizeEmptyEpisode(t *testing.T) {
	env := summarizeEnv(t)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	got := Summarize(env, 1, NewReturns(), 0)
	if got.Rounds != 0 || got.FinalAccuracy != 0 || got.BudgetSpent != 0 || got.ServerUtility != 0 {
		t.Errorf("empty episode summary not zeroed: %+v", got)
	}
}
