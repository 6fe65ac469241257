package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerSetting holds the configured worker count. Values <= 0 select
// GOMAXPROCS at call time (the default).
var workerSetting atomic.Int64

// SetWorkers sets how many goroutines a batch stage may fan out to: the
// bands of ParallelRange and the concurrent PPO update streams. n <= 0
// restores the default of GOMAXPROCS. It is safe to call concurrently with
// running stages; in-flight operations keep the count they started with.
func SetWorkers(n int) { workerSetting.Store(int64(n)) }

// Workers reports the worker count currently in force.
func Workers() int {
	if n := workerSetting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMinWork is the smallest scalar-operation count worth fanning
// out: below this the goroutine handoff costs more than it saves.
const parallelMinWork = 32 * 1024

// ParallelRange runs fn over at most maxBands contiguous index bands
// covering [0, n) — the node-axis sharding primitive for batch stages (the
// struct-of-arrays round pipeline). work estimates the total
// scalar-operation count; small jobs, n < 2, and Workers() <= 1 run inline
// on the caller as a single band with no synchronization. Otherwise the
// caller runs band 0 and every other band gets a goroutine of its own that
// ends before ParallelRange returns. fn receives its band's ordinal, which
// ascends with lo, and ParallelRange returns the number of bands it ran.
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
	nw := min(Workers(), maxBands, n)
	if nw <= 1 || work < parallelMinWork {
		if n <= 0 {
			return 0
		}
		fn(0, 0, n)
		return 1
	}
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	bands := 1
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(band, lo, hi int) {
			defer wg.Done()
			fn(band, lo, hi)
		}(bands, lo, min(lo+chunk, n))
		bands++
	}
	fn(0, 0, chunk)
	wg.Wait()
	return bands
}
