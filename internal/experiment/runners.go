package experiment

import (
	"fmt"

	"chiron/internal/accuracy"
	"chiron/internal/mechanism"
)

// ComparisonParams configures a Fig. 4/5/6-style budget sweep comparing
// mechanisms on one dataset.
type ComparisonParams struct {
	// Preset selects the dataset.
	Preset accuracy.Preset
	// Nodes is the fleet size.
	Nodes int
	// Budgets is the η sweep (the figure's x axis).
	Budgets []float64
	// Mechanisms lists the mechanisms to compare.
	Mechanisms []MechanismKind
	// TrainEpisodes is E per (mechanism, budget) pair (paper: 500).
	TrainEpisodes int
	// EvalEpisodes averages the deterministic evaluation.
	EvalEpisodes int
	// Seed drives everything.
	Seed int64
	// TimeWeight overrides the environment's exterior time weighting
	// (0 = calibrated default).
	TimeWeight float64
	// Jobs bounds concurrent grid cells (1 = serial, 0 = GOMAXPROCS).
	// Output is byte-identical at any setting.
	Jobs int
}

// Validate reports whether the parameters are usable.
func (p ComparisonParams) Validate() error {
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("experiment: comparison nodes %d", p.Nodes)
	case len(p.Budgets) == 0:
		return fmt.Errorf("experiment: comparison has no budgets")
	case len(p.Mechanisms) == 0:
		return fmt.Errorf("experiment: comparison has no mechanisms")
	case p.TrainEpisodes < 0 || p.EvalEpisodes <= 0:
		return fmt.Errorf("experiment: comparison episodes train=%d eval=%d", p.TrainEpisodes, p.EvalEpisodes)
	}
	return nil
}

// Scale returns a copy with episode counts multiplied by f (minimum 1),
// letting benchmarks run reduced versions of the full experiment.
func (p ComparisonParams) Scale(f float64) ComparisonParams {
	scaled := p
	scaled.TrainEpisodes = ScaleCount(p.TrainEpisodes, f)
	scaled.EvalEpisodes = ScaleCount(p.EvalEpisodes, f)
	return scaled
}

// ScaleCount multiplies an episode count by f, clamping nonzero counts to a
// minimum of 1 — the shared scaling rule every parameter set (and the
// scenario compiler) applies so reduced runs still train and evaluate.
func ScaleCount(n int, f float64) int {
	if n == 0 {
		return 0
	}
	s := int(float64(n) * f)
	if s < 1 {
		s = 1
	}
	return s
}

// BudgetPoint holds one budget's evaluation for every mechanism.
type BudgetPoint struct {
	Budget  float64
	Results map[string]mechanism.EpisodeResult
}

// Comparison is the output of a budget sweep — the data behind one of the
// paper's three-panel figures (accuracy, rounds, time efficiency vs η).
type Comparison struct {
	Params ComparisonParams
	Points []BudgetPoint
}

// cellJob is the job of one trained experiment cell: it opens kind on the
// setup's environment, trains it for train episodes and averages eval
// deterministic evaluation episodes. Everything stochastic inside the
// closure is seeded from the setup, so cells are independent and can run
// on any worker. point names the cell's grid point in the label
// ("Chiron η=300 seed=7").
func cellJob(point string, s Setup, kind MechanismKind, train, eval int) Job[mechanism.EpisodeResult] {
	return Job[mechanism.EpisodeResult]{
		Label: fmt.Sprintf("%s %s seed=%d", kind, point, s.Seed),
		Run: func() (mechanism.EpisodeResult, error) {
			m, err := s.open(kind)
			if err != nil {
				return mechanism.EpisodeResult{}, err
			}
			return mechanism.TrainAndEvaluate(m, train, eval)
		},
	}
}

// RunComparison executes the sweep as a plan of independent jobs, one per
// (budget, mechanism) cell: each is trained from scratch on its own
// environment copy (same fleet seed, so all mechanisms face identical node
// populations) and then evaluated. p.Jobs cells run concurrently; the
// result is byte-identical at any worker count.
func RunComparison(p ComparisonParams) (*Comparison, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]Job[mechanism.EpisodeResult], 0, len(p.Budgets)*len(p.Mechanisms))
	for _, budget := range p.Budgets {
		for _, kind := range p.Mechanisms {
			s := Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: budget, Seed: p.Seed, TimeWeight: p.TimeWeight}
			jobs = append(jobs, cellJob(fmt.Sprintf("η=%v", budget), s, kind, p.TrainEpisodes, p.EvalEpisodes))
		}
	}
	results, err := Plan[mechanism.EpisodeResult]{Name: "comparison", Jobs: jobs, Workers: p.Jobs}.Execute()
	if err != nil {
		return nil, err
	}
	out := &Comparison{Params: p}
	i := 0
	for _, budget := range p.Budgets {
		point := BudgetPoint{Budget: budget, Results: make(map[string]mechanism.EpisodeResult, len(p.Mechanisms))}
		for _, kind := range p.Mechanisms {
			point.Results[kind.String()] = results[i]
			i++
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

// ConvergenceParams configures a Fig. 3/7-style learning-curve run.
type ConvergenceParams struct {
	// Preset selects the dataset.
	Preset accuracy.Preset
	// Nodes is the fleet size.
	Nodes int
	// Budget is η.
	Budget float64
	// Mechanism selects the learner whose curve is recorded.
	Mechanism MechanismKind
	// Episodes is the training length (paper: 500).
	Episodes int
	// Window smooths the reported reward with a trailing moving average.
	Window int
	// Seed drives everything.
	Seed int64
	// TimeWeight overrides the environment's exterior time weighting
	// (0 = calibrated default).
	TimeWeight float64
}

// Validate reports whether the parameters are usable.
func (p ConvergenceParams) Validate() error {
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("experiment: convergence nodes %d", p.Nodes)
	case p.Budget <= 0:
		return fmt.Errorf("experiment: convergence budget %v", p.Budget)
	case p.Episodes <= 0:
		return fmt.Errorf("experiment: convergence episodes %d", p.Episodes)
	case p.Window <= 0:
		return fmt.Errorf("experiment: convergence window %d", p.Window)
	}
	return nil
}

// Scale returns a copy with the episode count multiplied by f (minimum 1).
func (p ConvergenceParams) Scale(f float64) ConvergenceParams {
	scaled := p
	scaled.Episodes = ScaleCount(p.Episodes, f)
	return scaled
}

// Convergence is a learning curve: one entry per training episode.
type Convergence struct {
	Params   ConvergenceParams
	Episodes []mechanism.EpisodeResult
	// SmoothedReward is the Window-episode trailing mean of the episode
	// exterior return Σ_k r^E_k, the series plotted in Figs. 3 and 7.
	SmoothedReward []float64
}

// RunConvergence trains the mechanism and records its per-episode results.
func RunConvergence(p ConvergenceParams) (*Convergence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: p.Budget, Seed: p.Seed, TimeWeight: p.TimeWeight}.open(p.Mechanism)
	if err != nil {
		return nil, err
	}
	t, ok := m.(mechanism.Trainable)
	if !ok {
		return nil, fmt.Errorf("experiment: mechanism %s is not trainable", m.Name())
	}
	episodes, err := t.Train(p.Episodes, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: convergence %s η=%v seed=%d: %w", p.Mechanism, p.Budget, p.Seed, err)
	}
	return &Convergence{Params: p, Episodes: episodes, SmoothedReward: smooth(extReturns(episodes), p.Window)}, nil
}

func extReturns(results []mechanism.EpisodeResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.ExteriorReturn
	}
	return out
}

// smooth computes a trailing moving average with the given window.
func smooth(series []float64, window int) []float64 {
	out := make([]float64, len(series))
	var sum float64
	for i, v := range series {
		sum += v
		if i >= window {
			sum -= series[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}
