package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one independently executable grid cell of an experiment plan —
// typically "build env, build mechanism, train, evaluate" for one
// (mechanism, budget, seed) tuple. Run must be self-contained: every RNG a
// job touches is seeded inside the closure, and no state is shared across
// jobs, which is what makes parallel execution byte-identical to serial.
type Job[T any] struct {
	// Label attributes the cell in errors: mechanism kind, grid point, and
	// seed (e.g. "Chiron η=300 seed=7").
	Label string
	// Run executes the cell.
	Run func() (T, error)
}

// Plan is a named list of independent jobs plus a worker budget. Execute
// is deterministic at any worker count — the scheduler only decides *when*
// a job runs, never *what* it computes or *where* its result lands — the
// same contract mat.SetWorkers establishes for the update streams and
// fleet round bands.
type Plan[T any] struct {
	// Name prefixes job errors ("comparison", "abl-robust", ...).
	Name string
	// Jobs is the grid in its canonical (serial) order.
	Jobs []Job[T]
	// Workers bounds concurrent jobs: 1 is serial, 0 means GOMAXPROCS.
	Workers int
}

// resolveWorkers maps the -jobs convention (0 = GOMAXPROCS) onto a bound
// no larger than the job count.
func resolveWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Execute runs every job and returns their results in job order. Results
// are written into a slot addressed by job index and errors are reported
// for the lowest-indexed failing job, so output and error are both
// independent of scheduling: a sweep at Workers=8 is byte-identical to
// Workers=1. All jobs run even when one fails (they are independent);
// the first error in job order is returned, wrapped with the plan name and
// the job's label.
func (p Plan[T]) Execute() ([]T, error) {
	n := len(p.Jobs)
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	if workers := resolveWorkers(p.Workers, n); workers == 1 {
		for i, job := range p.Jobs {
			results[i], errs[i] = job.Run()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = p.Jobs[i].Run()
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: %s job %d (%s): %w", p.Name, i, p.Jobs[i].Label, err)
		}
	}
	return results, nil
}
