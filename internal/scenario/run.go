package scenario

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"chiron/internal/experiment"
	"chiron/internal/mechanism"
)

// CellResult is one (mechanism, budget) grid cell's evaluation.
type CellResult struct {
	Mechanism string
	Budget    float64
	Result    mechanism.EpisodeResult
}

// Result is a full scenario run: the mechanism × budget grid in budget-major
// order, the layout the conformance suite digests.
type Result struct {
	Name  string
	Nodes int
	Cells []CellResult
}

// Cell addresses one (mechanism, budget) point of a spec's grid.
type Cell struct {
	// Mechanism is the canonical mechanism name (Kind.String()).
	Mechanism string
	// Kind is the resolved experiment mechanism kind.
	Kind experiment.MechanismKind
	// Budget is the cell's episode budget η.
	Budget float64
}

// Cells enumerates the spec's grid in its canonical budget-major order —
// the layout Run executes and the conformance digests pin.
func (s *Spec) Cells() ([]Cell, error) {
	cells := make([]Cell, 0, len(s.Budgets)*len(s.Mechanisms))
	for _, budget := range s.Budgets {
		for _, name := range s.Mechanisms {
			kind, err := MechanismKind(name)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Mechanism: kind.String(), Kind: kind, Budget: budget})
		}
	}
	return cells, nil
}

// CellRun is one open grid cell: a freshly compiled environment and
// mechanism positioned before training. It exposes the cell's execution as
// resumable steps — one training episode at a time, then one evaluation —
// so a hosted session can pause between episodes while computing exactly
// what Run's batch path computes. The step decomposition is behaviorally
// identical to one mechanism.TrainAndEvaluate call: every Train
// implementation is a pure loop over Driver.RunEpisode, so N single-episode
// Train calls replay the same state trajectory as one N-episode call.
type CellRun struct {
	spec    *Spec
	cell    Cell
	m       mechanism.Mechanism
	trained int
}

// OpenCell compiles the cell's environment and mechanism. The spec must
// already be validated (all callers funnel through Validate).
func OpenCell(s *Spec, c Cell) (*CellRun, error) {
	run, _, err := openCell(s, c, envHooks{})
	return run, err
}

// openCell compiles the cell with hooks threaded into its environment and
// also returns the environment's accuracy RNG.
func openCell(s *Spec, c Cell, hooks envHooks) (*CellRun, *rand.Rand, error) {
	env, accRng, err := s.BuildEnv(c.Budget, hooks)
	if err != nil {
		return nil, nil, err
	}
	m, err := experiment.BuildMechanism(c.Kind, env, s.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: mechanism: %w", err)
	}
	return &CellRun{spec: s, cell: c, m: m}, accRng, nil
}

// Cell returns the cell the run executes.
func (c *CellRun) Cell() Cell { return c.cell }

// Mechanism returns the cell's live mechanism.
func (c *CellRun) Mechanism() mechanism.Mechanism { return c.m }

// TrainRemaining reports how many training episodes are still owed. Static
// mechanisms owe none regardless of the spec's training length.
func (c *CellRun) TrainRemaining() int {
	if _, ok := c.m.(mechanism.Trainable); !ok {
		return 0
	}
	return c.spec.TrainEpisodes - c.trained
}

// TrainEpisode runs the next single training episode. It fails once no
// training episode is owed.
func (c *CellRun) TrainEpisode() (mechanism.EpisodeResult, error) {
	if c.TrainRemaining() <= 0 {
		return mechanism.EpisodeResult{}, fmt.Errorf("scenario: %s owes no training episode", c.m.Name())
	}
	res, err := c.m.(mechanism.Trainable).Train(1, nil)
	if err != nil {
		return mechanism.EpisodeResult{}, fmt.Errorf("mechanism: train %s: %w", c.m.Name(), err)
	}
	c.trained++
	return res[0], nil
}

// Train runs every owed training episode, consulting hooks.Gate before each
// and reporting each to hooks.Episode.
func (c *CellRun) Train(hooks CellHooks) error {
	for c.TrainRemaining() > 0 {
		if hooks.Gate != nil {
			if err := hooks.Gate(); err != nil {
				return err
			}
		}
		res, err := c.TrainEpisode()
		if err != nil {
			return err
		}
		if hooks.Episode != nil {
			hooks.Episode(c.cell, res, false)
		}
	}
	return nil
}

// Evaluate averages the spec's deterministic evaluation episodes — the
// cell's final result.
func (c *CellRun) Evaluate() (mechanism.EpisodeResult, error) {
	res, err := mechanism.Evaluate(c.m, c.spec.EvalEpisodes)
	if err != nil {
		return mechanism.EpisodeResult{}, fmt.Errorf("mechanism: evaluate %s: %w", c.m.Name(), err)
	}
	return res, nil
}

// CellHooks thread a hosted session's control points into a cell job. Both
// fields are optional; the zero value runs the cell straight through.
type CellHooks struct {
	// Gate is consulted before every episode (each training episode and the
	// evaluation block): a gate error aborts the cell with that error — the
	// hook sessions use to pause and stop between episodes.
	Gate func() error
	// Episode observes each training episode's summary (eval=false) and the
	// cell's final averaged evaluation (eval=true). It is called from the
	// scheduler worker running the cell; observers synchronize internally.
	Episode func(c Cell, res mechanism.EpisodeResult, eval bool)
}

// CellJob wraps one cell as an experiment job with the hooks threaded in.
func CellJob(s *Spec, c Cell, hooks CellHooks) experiment.Job[mechanism.EpisodeResult] {
	return experiment.Job[mechanism.EpisodeResult]{
		Label: fmt.Sprintf("%s %s η=%v seed=%d", s.Name, c.Kind, c.Budget, s.Seed),
		Run: func() (mechanism.EpisodeResult, error) {
			run, err := OpenCell(s, c)
			if err != nil {
				return mechanism.EpisodeResult{}, err
			}
			if err := run.Train(hooks); err != nil {
				return mechanism.EpisodeResult{}, err
			}
			if hooks.Gate != nil {
				if err := hooks.Gate(); err != nil {
					return mechanism.EpisodeResult{}, err
				}
			}
			res, err := run.Evaluate()
			if err == nil && hooks.Episode != nil {
				hooks.Episode(c, res, true)
			}
			return res, err
		},
	}
}

// Run compiles the spec and executes its mechanism × budget grid on the
// experiment plan scheduler: every cell is an independent job (own
// environment, own training) with hooks threaded into it, workers bounds
// concurrency (1 = serial, 0 = GOMAXPROCS), and the result is
// byte-identical at any worker count — the invariant the conformance
// goldens pin. A zero CellHooks runs the grid ungated.
func Run(s *Spec, workers int, hooks CellHooks) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	jobs := make([]experiment.Job[mechanism.EpisodeResult], 0, len(cells))
	for _, c := range cells {
		jobs = append(jobs, CellJob(s, c, hooks))
	}
	results, err := experiment.Plan[mechanism.EpisodeResult]{
		Name:    "scenario:" + s.Name,
		Jobs:    jobs,
		Workers: workers,
	}.Execute()
	if err != nil {
		return nil, err
	}
	out := &Result{Name: s.Name, Nodes: s.NumNodes()}
	for i, c := range cells {
		out.Cells = append(out.Cells, CellResult{Mechanism: c.Mechanism, Budget: c.Budget, Result: results[i]})
	}
	return out, nil
}

// hashFloats folds float64 values into h bit-exactly: any one-ULP drift in
// any value changes the digest.
func hashFloats(h hash.Hash64, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// hashInts folds integers into h.
func hashInts(h hash.Hash64, vals ...int) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

// hashResult folds one episode result into h, every field bit-exact.
func hashResult(h hash.Hash64, r mechanism.EpisodeResult) {
	hashInts(h, r.Episode, r.Rounds)
	hashFloats(h, r.FinalAccuracy, r.ExteriorReturn, r.DiscountedReturn,
		r.InnerReturn, r.TimeEfficiency, r.TotalTime, r.BudgetSpent, r.ServerUtility)
}

// Digest returns a ULP-sensitive FNV-1a fingerprint of the full grid: cell
// order, mechanism names, budgets, and every result field at exact bits.
// Two runs agree on the digest iff they agree on every float of every cell.
func (r *Result) Digest() string {
	h := fnv.New64a()
	h.Write([]byte(r.Name))
	hashInts(h, r.Nodes, len(r.Cells))
	for _, c := range r.Cells {
		h.Write([]byte(c.Mechanism))
		hashFloats(h, c.Budget)
		hashResult(h, c.Result)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary renders the grid as the stable text form the conformance goldens
// pin: one line per cell (rounded for human diffing) plus the exact-bits
// digest line, so a golden mismatch is readable and a sub-rounding drift is
// still caught.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d nodes, %d cells\n", r.Name, r.Nodes, len(r.Cells))
	for _, c := range r.Cells {
		res := c.Result
		fmt.Fprintf(&b, "  %-16s eta=%-8.6g rounds=%-4d acc=%.6f extret=%.6g spend=%.6g teff=%.6f util=%.6g\n",
			c.Mechanism, c.Budget, res.Rounds, res.FinalAccuracy, res.ExteriorReturn,
			res.BudgetSpent, res.TimeEfficiency, res.ServerUtility)
	}
	fmt.Fprintf(&b, "digest %s\n", r.Digest())
	return b.String()
}
