package mechanism

import "fmt"

// Trainable is the optional training surface the learning mechanisms
// (Chiron's hierarchical agent, the DRL-based and Greedy baselines)
// implement on top of Mechanism. Static references (Uniform, EqualTime)
// deliberately do not.
type Trainable interface {
	// Train runs episodes training episodes, invoking callback (when
	// non-nil) after each, and returns the per-episode summaries.
	Train(episodes int, callback func(EpisodeResult)) ([]EpisodeResult, error)
}

// Aggregator folds per-episode results into their running sums and averages
// them on Result. It is the ONE accumulation order for evaluation averages —
// Evaluate folds through it episode by episode, and so do callers that
// run episodes themselves (bench/trace.go), so the floating-point
// averaging order (and therefore seeded CSV output) is identical
// everywhere.
type Aggregator struct {
	agg EpisodeResult
	n   int
}

// Add folds one episode's result into the running sums.
func (a *Aggregator) Add(res EpisodeResult) {
	a.n++
	a.agg.Rounds += res.Rounds
	a.agg.FinalAccuracy += res.FinalAccuracy
	a.agg.ExteriorReturn += res.ExteriorReturn
	a.agg.DiscountedReturn += res.DiscountedReturn
	a.agg.InnerReturn += res.InnerReturn
	a.agg.TimeEfficiency += res.TimeEfficiency
	a.agg.TotalTime += res.TotalTime
	a.agg.BudgetSpent += res.BudgetSpent
	a.agg.ServerUtility += res.ServerUtility
}

// Result averages the folded episodes. It does not mutate the aggregator.
func (a *Aggregator) Result() EpisodeResult {
	out := a.agg
	inv := 1 / float64(a.n)
	out.Episode = a.n
	out.Rounds = int(float64(out.Rounds)*inv + 0.5)
	out.FinalAccuracy *= inv
	out.ExteriorReturn *= inv
	out.DiscountedReturn *= inv
	out.InnerReturn *= inv
	out.TimeEfficiency *= inv
	out.TotalTime *= inv
	out.BudgetSpent *= inv
	out.ServerUtility *= inv
	return out
}

// Evaluate averages episodes deterministic (train=false) episodes of m.
// Every experiment runner funnels through this one accumulation loop so the
// floating-point averaging order — and therefore seeded CSV output — is
// identical everywhere.
func Evaluate(m Mechanism, episodes int) (EpisodeResult, error) {
	if episodes <= 0 {
		return EpisodeResult{}, fmt.Errorf("mechanism: evaluate %d episodes, want > 0", episodes)
	}
	var agg Aggregator
	for ep := 0; ep < episodes; ep++ {
		res, err := m.RunEpisode(false)
		if err != nil {
			return EpisodeResult{}, fmt.Errorf("mechanism: eval episode %d: %w", ep+1, err)
		}
		agg.Add(res)
	}
	return agg.Result(), nil
}

// TrainAndEvaluate trains m for trainEpisodes when it is Trainable (static
// references skip straight to evaluation) and then averages evalEpisodes
// deterministic episodes. It is the one train-then-evaluate path shared by
// every comparison, convergence, and ablation runner.
func TrainAndEvaluate(m Mechanism, trainEpisodes, evalEpisodes int) (EpisodeResult, error) {
	if t, ok := m.(Trainable); ok && trainEpisodes > 0 {
		if _, err := t.Train(trainEpisodes, nil); err != nil {
			return EpisodeResult{}, fmt.Errorf("mechanism: train %s: %w", m.Name(), err)
		}
	}
	res, err := Evaluate(m, evalEpisodes)
	if err != nil {
		return EpisodeResult{}, fmt.Errorf("mechanism: evaluate %s: %w", m.Name(), err)
	}
	return res, nil
}
