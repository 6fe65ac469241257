package mechanism

import (
	"errors"
	"strings"
	"testing"

	"chiron/internal/edgeenv"
)

// scriptActor drives every node flat out and counts the driver's calls.
// Once an episode has ended, Decide returns decideErr when it is set.
type scriptActor struct {
	env       *edgeenv.Env
	decideErr error
	decides   int
	observes  int
	discards  int
	ends      int
	trains    []bool
}

func (a *scriptActor) Decide(train bool) ([]float64, error) {
	a.decides++
	a.trains = append(a.trains, train)
	if a.decideErr != nil && a.ends > 0 {
		return nil, a.decideErr
	}
	prices := make([]float64, a.env.NumNodes())
	for i, n := range a.env.Nodes() {
		prices[i] = n.PriceForFreq(n.FreqMax)
	}
	return prices, nil
}

func (a *scriptActor) Observe(edgeenv.StepResult, bool) error { a.observes++; return nil }

func (a *scriptActor) Discard(bool) { a.discards++ }

func (a *scriptActor) EndEpisode(bool) error { a.ends++; return nil }

func newScriptDriver(t *testing.T) (*Driver, *scriptActor) {
	t.Helper()
	env := summarizeEnv(t)
	actor := &scriptActor{env: env}
	return NewDriver("script", env, actor), actor
}

func TestRunEpisodeDiscardsBudgetExhaustedRound(t *testing.T) {
	d, actor := newScriptDriver(t)
	res, err := d.RunEpisode(true)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if actor.discards != 1 {
		t.Fatalf("Discard called %d times, want 1 (the budget-exhausting round)", actor.discards)
	}
	ledger := d.env.Ledger()
	if res.Rounds == 0 || res.Rounds != ledger.NumRounds() {
		t.Fatalf("result reports %d rounds, ledger committed %d", res.Rounds, ledger.NumRounds())
	}
	// Every committed round is observed; the discarded one is decided but
	// neither observed nor recorded.
	if actor.observes != res.Rounds || actor.decides != res.Rounds+1 {
		t.Fatalf("%d decides, %d observes for %d committed rounds", actor.decides, actor.observes, res.Rounds)
	}
	if actor.ends != 1 {
		t.Fatalf("EndEpisode called %d times, want 1", actor.ends)
	}
	if res.BudgetSpent != ledger.TotalSpent() || res.BudgetSpent > ledger.Budget() {
		t.Fatalf("spent %v of %v, ledger says %v", res.BudgetSpent, ledger.Budget(), ledger.TotalSpent())
	}
	for i, train := range actor.trains {
		if !train {
			t.Fatalf("decide %d saw train=false in a training episode", i)
		}
	}
}

func TestRunEpisodeRoundHookAborts(t *testing.T) {
	d, actor := newScriptDriver(t)
	stop := errors.New("killed")
	var rounds []int
	d.SetRoundHook(func(episode, round int) error {
		if episode != 0 {
			t.Errorf("hook saw episode %d, want 0", episode)
		}
		rounds = append(rounds, round)
		if round == 3 {
			return stop
		}
		return nil
	})
	if _, err := d.RunEpisode(false); !errors.Is(err, stop) {
		t.Fatalf("RunEpisode error = %v, want the hook's", err)
	}
	if len(rounds) != 3 || rounds[0] != 1 || rounds[2] != 3 {
		t.Fatalf("hook saw rounds %v, want [1 2 3]", rounds)
	}
	if actor.decides != 2 || actor.ends != 0 || d.Episode() != 0 {
		t.Fatalf("aborted episode: %d decides, %d ends, counter %d; want 2, 0, 0",
			actor.decides, actor.ends, d.Episode())
	}

	// Removing the hook lets the next episode run to completion.
	d.SetRoundHook(nil)
	if _, err := d.RunEpisode(false); err != nil {
		t.Fatalf("RunEpisode without hook: %v", err)
	}
}

func TestDriverEpisodeCounter(t *testing.T) {
	d, _ := newScriptDriver(t)
	d.SetEpisode(41)
	var hookEpisode int
	d.SetRoundHook(func(episode, _ int) error { hookEpisode = episode; return nil })
	res, err := d.RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if hookEpisode != 41 || res.Episode != 42 || d.Episode() != 42 {
		t.Fatalf("hook episode %d, result episode %d, counter %d; want 41, 42, 42",
			hookEpisode, res.Episode, d.Episode())
	}
}

func TestTrainRejectsNonPositiveEpisodes(t *testing.T) {
	d, actor := newScriptDriver(t)
	for _, n := range []int{0, -1} {
		if _, err := d.Train(n, nil); err == nil {
			t.Fatalf("Train(%d) accepted", n)
		}
	}
	if actor.decides != 0 {
		t.Fatalf("rejected Train still ran %d decides", actor.decides)
	}
}

func TestTrainNamesFailingEpisode(t *testing.T) {
	d, actor := newScriptDriver(t)
	actor.decideErr = errors.New("no prices") // from the second episode on
	var called int
	results, err := d.Train(3, func(EpisodeResult) { called++ })
	if !errors.Is(err, actor.decideErr) || !strings.Contains(err.Error(), "script episode 2") {
		t.Fatalf("Train error = %v, want the decide error naming script episode 2", err)
	}
	if len(results) != 1 || called != 1 {
		t.Fatalf("%d results and %d callbacks before the failure, want 1 and 1", len(results), called)
	}
}

func TestEvaluateRejectsNonPositiveEpisodes(t *testing.T) {
	m := &staticMech{}
	for _, n := range []int{0, -2} {
		if _, err := Evaluate(m, n); err == nil {
			t.Fatalf("Evaluate(%d) accepted", n)
		}
	}
	if len(m.trains) != 0 {
		t.Fatalf("rejected Evaluate ran %d episodes", len(m.trains))
	}
}

func TestAggregatorAveragesAndRoundsRounds(t *testing.T) {
	var agg Aggregator
	agg.Add(EpisodeResult{Rounds: 1, FinalAccuracy: 0.5, ServerUtility: 10, BudgetSpent: 3})
	agg.Add(EpisodeResult{Rounds: 2, FinalAccuracy: 0.7, ServerUtility: 20, BudgetSpent: 5})
	got := agg.Result()
	if got.Episode != 2 || got.Rounds != 2 { // 1.5 rounds half-up to 2
		t.Fatalf("episode %d rounds %d, want 2 and 2", got.Episode, got.Rounds)
	}
	if got.FinalAccuracy != (0.5+0.7)*0.5 || got.ServerUtility != 15 || got.BudgetSpent != 4 {
		t.Fatalf("averages %+v", got)
	}
	// Result does not mutate the aggregator: a third episode folds into
	// the same sums.
	agg.Add(EpisodeResult{Rounds: 1})
	if got := agg.Result(); got.Episode != 3 || got.Rounds != 1 { // 4/3 rounds to 1
		t.Fatalf("after a third episode: episode %d rounds %d, want 3 and 1", got.Episode, got.Rounds)
	}
}

// staticMech is a non-Trainable mechanism that records each episode's
// train flag.
type staticMech struct {
	trains []bool
	err    error
}

func (m *staticMech) Name() string      { return "static" }
func (m *staticMech) Env() *edgeenv.Env { return nil }
func (m *staticMech) RunEpisode(train bool) (EpisodeResult, error) {
	m.trains = append(m.trains, train)
	return EpisodeResult{Rounds: len(m.trains), FinalAccuracy: 0.5}, m.err
}

// trainableMech adds a Train method that counts its episodes.
type trainableMech struct {
	staticMech
	trained  int
	trainErr error
}

func (m *trainableMech) Train(episodes int, _ func(EpisodeResult)) ([]EpisodeResult, error) {
	m.trained += episodes
	return nil, m.trainErr
}

func TestTrainAndEvaluateSkipsTrainingForStaticMechanism(t *testing.T) {
	m := &staticMech{}
	res, err := TrainAndEvaluate(m, 5, 3)
	if err != nil {
		t.Fatalf("TrainAndEvaluate: %v", err)
	}
	if len(m.trains) != 3 {
		t.Fatalf("ran %d episodes, want only the 3 evaluation episodes", len(m.trains))
	}
	for i, train := range m.trains {
		if train {
			t.Fatalf("episode %d ran with train=true", i)
		}
	}
	if res.Episode != 3 || res.Rounds != 2 || res.FinalAccuracy != 0.5 {
		t.Fatalf("result %+v, want 3 episodes averaging 2 rounds at accuracy 0.5", res)
	}
}

func TestTrainAndEvaluateTrainsThenEvaluates(t *testing.T) {
	m := &trainableMech{}
	if _, err := TrainAndEvaluate(m, 5, 2); err != nil {
		t.Fatalf("TrainAndEvaluate: %v", err)
	}
	if m.trained != 5 || len(m.trains) != 2 {
		t.Fatalf("trained %d, evaluated %d; want 5 and 2", m.trained, len(m.trains))
	}

	m = &trainableMech{trainErr: errors.New("diverged")}
	if _, err := TrainAndEvaluate(m, 1, 1); !errors.Is(err, m.trainErr) || !strings.Contains(err.Error(), "train static") {
		t.Fatalf("train failure = %v, want it wrapped with the mechanism name", err)
	}
	if len(m.trains) != 0 {
		t.Fatal("evaluated after a failed training run")
	}

	bad := &staticMech{err: errors.New("env broke")}
	if _, err := TrainAndEvaluate(bad, 0, 2); !errors.Is(err, bad.err) || !strings.Contains(err.Error(), "eval episode 1") {
		t.Fatalf("evaluation failure = %v, want it wrapped with the episode", err)
	}
}
