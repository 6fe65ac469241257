package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The GEMM kernels in this package are row-blocked: the output matrix is
// split into contiguous bands of rows and each band is computed by one
// worker. Because every output element is owned by exactly one band and the
// per-element accumulation always runs over k in ascending order, the result
// is bit-identical at any worker count — parallelism changes only which
// goroutine computes a band, never the floating-point reduction order.

// workerSetting holds the configured worker count. Values <= 0 select
// GOMAXPROCS at call time (the default).
var workerSetting atomic.Int64

// SetWorkers sets the number of workers GEMM kernels may fan out to.
// n <= 0 restores the default of GOMAXPROCS. It is safe to call
// concurrently with running kernels; in-flight operations keep the count
// they started with.
func SetWorkers(n int) { workerSetting.Store(int64(n)) }

// Workers reports the worker count currently in force.
func Workers() int {
	if n := workerSetting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMinFlops is the smallest multiply-accumulate count worth fanning
// out: below this the goroutine handoff costs more than it saves.
const parallelMinFlops = 32 * 1024

// blockTask is one row band handed to the pool.
type blockTask struct {
	fn           func(band, lo, hi int)
	band, lo, hi int
	wg           *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolCh   chan blockTask
)

// startPool lazily launches the persistent worker goroutines. The pool is
// sized at max(NumCPU, 4) so tests exercising -workers=4 genuinely run
// concurrent bands even on small machines; the effective parallelism of any
// single operation stays bounded by Workers().
func startPool() {
	size := runtime.NumCPU()
	if size < 4 {
		size = 4
	}
	poolCh = make(chan blockTask, 4*size)
	for i := 0; i < size; i++ {
		go func() {
			for t := range poolCh {
				t.fn(t.band, t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// serialRows reports whether a kernel over rows with the given flop count
// should run inline on the caller rather than fan out. Kernels use it to
// skip closure construction entirely on the serial path, keeping small
// operations allocation-free.
func serialRows(rows, flops int) bool {
	return Workers() <= 1 || rows < 2 || flops < parallelMinFlops
}

// ParallelRange runs fn over at most maxBands contiguous index bands
// covering [0, n) on the package's bounded worker pool — the node-axis
// sharding primitive for batch stages outside this package (the
// struct-of-arrays round pipeline). work estimates the total
// scalar-operation count; small jobs, n < 2, and Workers() <= 1 run inline
// on the caller as a single band with no synchronization. fn receives its
// band's ordinal, which ascends with lo, and ParallelRange returns the
// number of bands it ran.
//
// fn must be safe to call concurrently on disjoint ranges and must write
// only elements it owns. Elementwise kernels are bit-identical at any
// worker count by construction (each element is computed exactly once,
// independent of banding). Reductions must NOT be accumulated across
// bands inside fn. A float reduction must not depend on the banding:
// stream it sequentially in ascending index order after the parallel pass,
// or sum fixed-size blocks whose boundaries do not move with the worker
// count. An exact reduction (an integer count, a boolean OR) may keep one
// partial per band — in a caller-owned slice of length maxBands, indexed
// by the ordinal — combined in band order afterwards.
func ParallelRange(n, work, maxBands int, fn func(band, lo, hi int)) int {
	return parallelRows(n, work, maxBands, fn)
}

// parallelRows runs fn over at most maxBands contiguous blocks covering
// [0, rows) and returns how many it ran. flops estimates the total
// multiply-accumulate work; small jobs, rows < 2, and Workers() <= 1 run
// inline on the caller with no synchronization. The caller always computes
// the first block itself so a worker pool stall can never leave the
// operation making no progress.
func parallelRows(rows, flops, maxBands int, fn func(band, lo, hi int)) int {
	nw := min(Workers(), maxBands, rows)
	if nw <= 1 || flops < parallelMinFlops {
		if rows <= 0 {
			return 0
		}
		fn(0, 0, rows)
		return 1
	}
	poolOnce.Do(startPool)
	chunk := (rows + nw - 1) / nw
	var wg sync.WaitGroup
	bands := 1
	for lo := chunk; lo < rows; lo += chunk {
		wg.Add(1)
		poolCh <- blockTask{fn: fn, band: bands, lo: lo, hi: min(lo+chunk, rows), wg: &wg}
		bands++
	}
	fn(0, 0, chunk)
	wg.Wait()
	return bands
}
