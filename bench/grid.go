package main

import (
	"bytes"
	"fmt"
	"time"

	"chiron/internal/experiment"
	"chiron/internal/mechanism"
)

// gridScale shrinks the Fig. 4 grid's 500 training and 5 evaluation
// episodes per cell to 5 and 1, so one grid of 15 cells takes about a
// second on two cores.
const gridScale = 0.01

// gridSeeds is how many consecutive seeds one repetition runs the grid
// on. A seed sets the fleet, which sets how many rounds every cell plays;
// one grid's cost moves by ±20% from seed to seed, three average that out.
const gridSeeds = 3

// gridJobs is the grid's worker bound: one per core of the reference host.
const gridJobs = 2

// gridParams is the Fig. 4 comparison (Chiron / DRL-based / Greedy × five
// budgets, MNIST, N=5) at gridScale, once for each of the gridSeeds seeds
// starting at seed.
func gridParams(seed int64) ([]experiment.ComparisonParams, error) {
	var out []experiment.ComparisonParams
	for i := int64(0); i < gridSeeds; i++ {
		p, err := experiment.ComparisonDefaults(experiment.Fig4)
		if err != nil {
			return nil, err
		}
		p.Seed = seed + i
		p.Jobs = gridJobs
		out = append(out, p.Scale(gridScale))
	}
	return out, nil
}

func comparisonCSV(c *experiment.Comparison) ([]byte, error) {
	var b bytes.Buffer
	if err := experiment.WriteComparisonCSV(&b, c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// gridSetup builds every cell's environment and mechanism, the work each
// grid job does before its first episode.
func gridSetup(params []experiment.ComparisonParams) error {
	for _, p := range params {
		for _, budget := range p.Budgets {
			for _, kind := range p.Mechanisms {
				env, err := experiment.BuildEnv(experiment.Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: budget,
					Seed: p.Seed, TimeWeight: p.TimeWeight})
				if err != nil {
					return err
				}
				if _, err := experiment.BuildMechanism(kind, env, p.Seed); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// gridCell is one traced grid job.
type gridCell struct {
	setup      experiment.Setup
	kind       experiment.MechanismKind
	rec        *recorder
	pass       *tracedPass
	result     mechanism.EpisodeResult
	start, end time.Time
}

// gridPass runs the comparison as the same experiment.Plan RunComparison
// builds, but from this benchmark's own jobs: each job builds its cell and
// plays it through the traced driver pass, so every cell is timed and
// taped. Its CSV must equal RunComparison's.
func gridPass(p experiment.ComparisonParams, epoch time.Time) (*experiment.Comparison, []*gridCell, float64, error) {
	var jobs []experiment.Job[*gridCell]
	for _, budget := range p.Budgets {
		for _, kind := range p.Mechanisms {
			label := fmt.Sprintf("%s η=%v seed=%d", kind, budget, p.Seed)
			setup := experiment.Setup{Preset: p.Preset, Nodes: p.Nodes, Budget: budget, Seed: p.Seed, TimeWeight: p.TimeWeight}
			jobs = append(jobs, experiment.Job[*gridCell]{Label: label, Run: func() (*gridCell, error) {
				c := &gridCell{setup: setup, kind: kind, rec: newRecorder(epoch, label), start: time.Now()}
				job := c.rec.open("job", 0, c.start)
				env, err := experiment.BuildEnv(setup)
				if err != nil {
					return nil, err
				}
				m, err := experiment.BuildMechanism(kind, env, p.Seed)
				if err != nil {
					return nil, err
				}
				c.rec.add("setup", job, c.start, time.Now())
				actor, ok := m.(mechanism.Actor)
				if !ok {
					return nil, fmt.Errorf("%s does not expose its actor", m.Name())
				}
				train := 0
				if _, ok := m.(mechanism.Trainable); ok {
					train = p.TrainEpisodes
				}
				c.pass = newTracedPass(c.rec, m.Name(), env, actor, learners(m))
				if c.result, err = c.pass.play(job, train, p.EvalEpisodes); err != nil {
					return nil, err
				}
				c.end = time.Now()
				c.rec.close(job, c.end)
				return c, nil
			}})
		}
	}
	t0 := time.Now()
	cells, err := experiment.Plan[*gridCell]{Name: "bench grid", Jobs: jobs, Workers: p.Jobs}.Execute()
	wall := since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	cmp := &experiment.Comparison{Params: p}
	i := 0
	for _, budget := range p.Budgets {
		point := experiment.BudgetPoint{Budget: budget, Results: map[string]mechanism.EpisodeResult{}}
		for _, kind := range p.Mechanisms {
			point.Results[kind.String()] = cells[i].result
			i++
		}
		cmp.Points = append(cmp.Points, point)
	}
	return cmp, cells, wall, nil
}

func gridAttempted(cells []*gridCell) int {
	n := 0
	for _, c := range cells {
		n += sumInts(c.pass.attempted)
	}
	return n
}

// gridTail is how long the plan ran with a worker idle for good: from the
// first job end after the last job started to the end of the plan.
func gridTail(cells []*gridCell) float64 {
	var lastStart, end time.Time
	for _, c := range cells {
		if c.start.After(lastStart) {
			lastStart = c.start
		}
		if c.end.After(end) {
			end = c.end
		}
	}
	firstIdle := end
	for _, c := range cells {
		if !c.end.Before(lastStart) && c.end.Before(firstIdle) {
			firstIdle = c.end
		}
	}
	return end.Sub(firstIdle).Seconds()
}

// gridRep is one repetition's grids, each timed on its own.
type gridRep struct {
	csv   []byte    // every grid's CSV, in seed order
	walls []float64 // every grid's wall time
	cells []*gridCell
	tail  float64 // Σ gridTail (bench-owned passes only)
}

// runComparisons plays the grids through RunComparison.
func runComparisons(params []experiment.ComparisonParams) (gridRep, error) {
	var rep gridRep
	for _, p := range params {
		t0 := time.Now()
		cmp, err := experiment.RunComparison(p)
		if err != nil {
			return rep, err
		}
		rep.walls = append(rep.walls, since(t0))
		csv, err := comparisonCSV(cmp)
		if err != nil {
			return rep, err
		}
		rep.csv = append(rep.csv, csv...)
	}
	return rep, nil
}

// gridPasses plays the grids through the benchmark's own traced jobs.
func gridPasses(params []experiment.ComparisonParams, epoch time.Time) (gridRep, error) {
	var rep gridRep
	for _, p := range params {
		cmp, cells, wall, err := gridPass(p, epoch)
		if err != nil {
			return rep, err
		}
		csv, err := comparisonCSV(cmp)
		if err != nil {
			return rep, err
		}
		rep.csv = append(rep.csv, csv...)
		rep.walls = append(rep.walls, wall)
		rep.cells = append(rep.cells, cells...)
		rep.tail += gridTail(cells)
	}
	return rep, nil
}

// runGrid measures the Fig. 4 grid: repetitions of RunComparison over
// gridSeeds seeds until the measurement time is spent, then one bench-owned
// pass that counts the rounds played and must reproduce RunComparison's
// CSVs. On a traced run, traced bench-owned passes alternate with the
// untraced repetitions instead.
func runGrid(opt options, spans *spanSink) (*Result, error) {
	const name = "grid-fig4"
	res := newResult(name, opt)
	params, err := gridParams(opt.seed)
	if err != nil {
		return nil, err
	}
	episodesPerRep := 0
	for _, p := range params {
		episodesPerRep += len(p.Budgets) * len(p.Mechanisms) * (p.TrainEpisodes + p.EvalEpisodes)
	}
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(opt.seconds * float64(time.Second)))
	var setups []float64
	var plain, traced []gridRep
	var want string
	var rc runtimeCounters
	for len(plain) < minReps || time.Now().Before(deadline) {
		if setups, err = timeSetups(setups, func() error { return gridSetup(params) }); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		var rep gridRep
		rc, err = measureRuntime(func() error {
			var err error
			rep, err = runComparisons(params)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		plain = append(plain, rep)
		res.Attempted += episodesPerRep
		got := digestBytes(rep.csv)
		if want == "" {
			want = got
		} else if got != want {
			res.Failed += episodesPerRep
		}
		if opt.trace {
			tr, err := gridPasses(params, epoch)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", name, err)
			}
			res.Attempted += episodesPerRep
			if digestBytes(tr.csv) != want {
				res.Failed += episodesPerRep
			}
			traced = append(traced, tr)
		}
	}
	res.Reps = len(plain)
	res.Digest = want
	res.Raw["setup_seconds"] = setups
	var walls [][]float64
	for _, rep := range plain {
		walls = append(walls, rep.walls)
		res.Raw["rep_seconds"] = append(res.Raw["rep_seconds"], sum(rep.walls))
	}
	repSeconds := estimate(walls)
	res.check("repetitions agree", res.Failed == 0, "%d repetitions of %d grids, CSV digest %s", len(plain), len(params), want)
	checkGolden(res, name, want)

	if !opt.trace {
		// The peak so far is RunComparison's; the counting pass below holds
		// every cell's tape at once.
		rss := peakRSSMB()
		// One bench-owned pass after timing counts the rounds RunComparison
		// played; it cannot report them itself.
		count, err := gridPasses(params, epoch)
		if err != nil {
			return nil, fmt.Errorf("%s round count: %w", name, err)
		}
		same := digestBytes(count.csv) == want
		res.check("bench-owned plan equals RunComparison", same, "CSV digest %s", digestBytes(count.csv))
		if !same {
			res.Failed++
		}
		res.Metrics.set("setup_s", median(setups), "s", "lower")
		res.Metrics.set("rounds_per_s", float64(gridAttempted(count.cells))/repSeconds, "1/s", "higher")
		res.Metrics.set("peak_rss_mb", rss, "MB", "lower")
		res.Extra.set("episodes_per_s", float64(episodesPerRep)/repSeconds, "1/s", "higher")
		res.Extra.set("rep_rounds", float64(gridAttempted(count.cells)), "count", "")
		setFailedFrac(res)
		return res, nil
	}

	res.check("traced equals untraced", res.Failed == 0, "%d traced repetitions", len(traced))
	var ledgers []ledger
	var tracedWalls [][]float64
	for _, tr := range traced {
		var l ledger
		for _, c := range tr.cells {
			l.addRecorder(c.rec)
			l.addPass(c.pass)
			spans.add(name, c.rec)
		}
		ledgers = append(ledgers, l)
		tracedWalls = append(tracedWalls, tr.walls)
	}
	last := traced[len(traced)-1]
	var stages stageTotals
	var replayErr error
	for _, c := range last.cells {
		twin, err := experiment.BuildEnv(c.setup)
		if err != nil {
			return nil, err
		}
		st, err := replayStages(twin, c.pass.actor.tape)
		if err != nil && replayErr == nil {
			replayErr = fmt.Errorf("%s η=%v seed=%d: %w", c.kind, c.setup.Budget, c.setup.Seed, err)
		}
		stages.add(st)
	}
	res.check("stage replay", replayErr == nil, "%d rounds replayed through the stage chain; %v", stages.attempted, errText(replayErr))
	if replayErr != nil {
		res.Failed++
	}
	layerMetrics(ledgers, stages, res)
	setRuntime(res.Metrics, rc, gridAttempted(last.cells))
	setOverhead(res.Metrics, estimate(tracedWalls), repSeconds)

	var cellSeconds []float64
	for _, c := range last.cells {
		cellSeconds = append(cellSeconds, c.end.Sub(c.start).Seconds())
	}
	res.Extra.set("experiment.cell_p50_s", median(cellSeconds), "s", "")
	res.Extra.set("experiment.cell_max_s", maxOf(cellSeconds), "s", "")
	res.Extra.set("experiment.busy_frac", sum(cellSeconds)/(float64(gridJobs)*sum(last.walls)), "frac", "higher")
	res.Extra.set("experiment.tail_s", last.tail, "s", "lower")
	setFailedFrac(res)
	return res, nil
}
