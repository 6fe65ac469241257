package rl

import (
	"math/rand"
	"testing"

	"chiron/internal/mat"
)

// maxUpdateAllocs bounds a steady-state PPO.Update's or flush's heap
// allocations: the stream list and error slots, and the pool's goroutines,
// closure and shared counter; nothing per sample or per epoch.
const maxUpdateAllocs = 8

// TestUpdateAllocsConstant pins the update's steady-state allocation: once
// its recycled scratch is sized, PPO.Update allocates a small constant
// number of objects, the same for every batch size and epoch count, on the
// serial path and on the pool. Two buffer shapes run: self-loop rows
// (each next state is its own state, so every non-terminal row is valued by
// the off-chain forward pass) and trajectory rows (each next state is the
// next row's state, so the states forward pass values them all).
func TestUpdateAllocsConstant(t *testing.T) {
	defer mat.SetWorkers(0)
	for _, trajectory := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			mat.SetWorkers(workers)
			var first float64
			for i, tc := range []struct{ batch, epochs int }{{8, 1}, {64, 1}, {8, 10}, {64, 10}} {
				rng := rand.New(rand.NewSource(int64(10 + i)))
				cfg := DefaultPPOConfig()
				cfg.UpdateEpochs = tc.epochs
				cfg.Hidden = []int{8}
				agent, err := NewPPO(rng, 4, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				randState := func() []float64 {
					return []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				}
				buf := &Buffer{}
				state := randState()
				for s := 0; s < tc.batch; s++ {
					act, lp, err := agent.Act(rng, state)
					if err != nil {
						t.Fatal(err)
					}
					next, done := state, s%4 == 3
					if trajectory {
						next = randState()
					}
					buf.Add(Transition{State: state, Action: act, Reward: rng.Float64(), NextState: next, Done: done, LogProb: lp})
					state = randState()
					if trajectory && !done {
						state = next
					}
				}
				update := func() {
					if _, err := agent.Update(buf); err != nil {
						t.Fatal(err)
					}
				}
				update() // size the scratch
				allocs := testing.AllocsPerRun(10, update)
				t.Logf("trajectory=%v workers=%d batch=%d epochs=%d: %v allocs/update", trajectory, workers, tc.batch, tc.epochs, allocs)
				if allocs > maxUpdateAllocs {
					t.Fatalf("trajectory=%v workers=%d batch=%d epochs=%d: %v allocs per update, want <= %d",
						trajectory, workers, tc.batch, tc.epochs, allocs, maxUpdateAllocs)
				}
				if i == 0 {
					first = allocs
				} else if allocs != first {
					t.Fatalf("trajectory=%v workers=%d batch=%d epochs=%d: %v allocs per update, batch=8 epochs=1 made %v; allocation must not grow with the batch or the epochs",
						trajectory, workers, tc.batch, tc.epochs, allocs, first)
				}
			}
		}
	}
}

// TestFlushAllocsConstant pins the scheduler's flush the same way: once
// the pairs' scratch and buffers are sized, preparing two pairs and running
// their four streams from one list allocates a small constant, the same
// for every batch size and epoch count, serially and on the pool.
func TestFlushAllocsConstant(t *testing.T) {
	defer mat.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		mat.SetWorkers(workers)
		var first float64
		for i, tc := range []struct{ batch, epochs int }{{8, 1}, {64, 1}, {8, 10}, {64, 10}} {
			rng := rand.New(rand.NewSource(int64(20 + i)))
			cfg := DefaultPPOConfig()
			cfg.UpdateEpochs = tc.epochs
			cfg.Hidden = []int{8}
			var pairs []*Pair
			var batches [][]Transition
			for _, dims := range [][2]int{{4, 2}, {6, 3}} {
				agent, err := NewPPO(rng, dims[0], dims[1], cfg)
				if err != nil {
					t.Fatal(err)
				}
				var batch []Transition
				state := make([]float64, dims[0])
				for s := 0; s < tc.batch; s++ {
					for j := range state {
						state[j] = rng.Float64()
					}
					act, lp, err := agent.Act(rng, state)
					if err != nil {
						t.Fatal(err)
					}
					next := make([]float64, dims[0])
					for j := range next {
						next[j] = rng.Float64()
					}
					batch = append(batch, Transition{State: append([]float64(nil), state...), Action: act, Reward: rng.Float64(), NextState: next, Done: s%4 == 3, LogProb: lp})
				}
				pairs = append(pairs, NewPair("p", agent))
				batches = append(batches, batch)
			}
			s := &Scheduler{Pairs: pairs, MinSamples: 1, DecayFirst: true}
			flush := func() {
				for k, p := range pairs {
					for _, tr := range batches[k] {
						p.Store(tr)
					}
				}
				if err := s.EndEpisode(); err != nil {
					t.Fatal(err)
				}
			}
			flush() // size the scratch and the buffers
			allocs := testing.AllocsPerRun(10, flush)
			t.Logf("workers=%d batch=%d epochs=%d: %v allocs/flush", workers, tc.batch, tc.epochs, allocs)
			if allocs > maxUpdateAllocs {
				t.Fatalf("workers=%d batch=%d epochs=%d: %v allocs per flush, want <= %d", workers, tc.batch, tc.epochs, allocs, maxUpdateAllocs)
			}
			if i == 0 {
				first = allocs
			} else if allocs != first {
				t.Fatalf("workers=%d batch=%d epochs=%d: %v allocs per flush, batch=8 epochs=1 made %v; allocation must not grow with the batch or the epochs",
					workers, tc.batch, tc.epochs, allocs, first)
			}
		}
	}
}
