package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"chiron/internal/mechanism"
)

// digestEpisodes is an FNV-1a fingerprint of every field of every episode
// result at exact float bits: one ULP of drift anywhere changes it.
func digestEpisodes(results []mechanism.EpisodeResult) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	for _, r := range results {
		put(uint64(int64(r.Episode)))
		put(uint64(int64(r.Rounds)))
		for _, v := range []float64{r.FinalAccuracy, r.ExteriorReturn, r.DiscountedReturn, r.InnerReturn,
			r.TimeEfficiency, r.TotalTime, r.BudgetSpent, r.ServerUtility} {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestBytes is an FNV-1a fingerprint of b.
func digestBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSeed is the seed the golden digests were recorded at: the paper
// experiments' seed and the benchmark's default.
const goldenSeed = 7

//go:embed testdata/golden.json
var goldenJSON []byte

// golden maps a workload to its digest at goldenSeed. For serve the keys
// are "serve/<session seed>", one per session spec the workload cycles
// through.
func golden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares digest with the recorded golden value for key when
// the run used goldenSeed; other seeds have no golden and pass.
func checkGolden(r *Result, key, digest string) {
	if r.Seed != goldenSeed {
		return
	}
	g, err := golden()
	if err != nil {
		r.check("golden "+key, false, "%v", err)
		return
	}
	want, ok := g[key]
	r.check("golden "+key, ok && want == digest, "digest %s, golden %s", digest, want)
}
