package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Partitioner splits a dataset's sample indices across n edge nodes.
type Partitioner interface {
	// Partition returns one index slice per node. Every sample is assigned
	// to exactly one node and every node receives at least one sample.
	Partition(rng *rand.Rand, d *Dataset, n int) ([][]int, error)
}

// IID assigns samples uniformly at random, the paper's "randomly
// distributed among the edge nodes" setting.
type IID struct{}

var _ Partitioner = IID{}

// Partition implements Partitioner.
func (IID) Partition(rng *rand.Rand, d *Dataset, n int) ([][]int, error) {
	if err := checkPartitionArgs(d, n); err != nil {
		return nil, err
	}
	perm := rng.Perm(d.Len())
	out := make([][]int, n)
	for i, idx := range perm {
		node := i % n
		out[node] = append(out[node], idx)
	}
	return out, nil
}

// Dirichlet assigns each class's samples across nodes with proportions
// drawn from a symmetric Dirichlet(α) distribution — the standard
// federated-learning non-IID benchmark. Small α yields highly skewed
// label distributions.
type Dirichlet struct {
	Alpha float64
}

var _ Partitioner = Dirichlet{}

// Partition implements Partitioner.
func (p Dirichlet) Partition(rng *rand.Rand, d *Dataset, n int) ([][]int, error) {
	if err := checkPartitionArgs(d, n); err != nil {
		return nil, err
	}
	if p.Alpha <= 0 {
		return nil, fmt.Errorf("dataset: dirichlet alpha %v, want > 0", p.Alpha)
	}
	byClass := make([][]int, d.Classes)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	out := make([][]int, n)
	for _, indices := range byClass {
		if len(indices) == 0 {
			continue
		}
		rng.Shuffle(len(indices), func(i, j int) { indices[i], indices[j] = indices[j], indices[i] })
		weights := dirichletSample(rng, p.Alpha, n)
		// Convert weights into cumulative cut points over this class.
		start := 0
		var cum float64
		for node := 0; node < n; node++ {
			cum += weights[node]
			end := int(cum * float64(len(indices)))
			if node == n-1 {
				end = len(indices)
			}
			if end > start {
				out[node] = append(out[node], indices[start:end]...)
				start = end
			}
		}
	}
	// Guarantee every node holds at least one sample by stealing from the
	// richest node.
	for node := range out {
		if len(out[node]) > 0 {
			continue
		}
		richest := 0
		for j := range out {
			if len(out[j]) > len(out[richest]) {
				richest = j
			}
		}
		if len(out[richest]) < 2 {
			return nil, fmt.Errorf("dataset: too few samples (%d) for %d nodes", d.Len(), n)
		}
		last := len(out[richest]) - 1
		out[node] = append(out[node], out[richest][last])
		out[richest] = out[richest][:last]
	}
	return out, nil
}

// Shards sorts samples by label, cuts them into ShardsPerNode×n contiguous
// shards, and deals shards to nodes — the pathological non-IID split from
// the original FedAvg paper.
type Shards struct {
	ShardsPerNode int
}

var _ Partitioner = Shards{}

// Partition implements Partitioner.
func (p Shards) Partition(rng *rand.Rand, d *Dataset, n int) ([][]int, error) {
	if err := checkPartitionArgs(d, n); err != nil {
		return nil, err
	}
	spn := p.ShardsPerNode
	if spn <= 0 {
		spn = 2
	}
	total := spn * n
	if d.Len() < total {
		return nil, fmt.Errorf("dataset: %d samples cannot fill %d shards", d.Len(), total)
	}
	indices := make([]int, d.Len())
	for i := range indices {
		indices[i] = i
	}
	sort.SliceStable(indices, func(a, b int) bool { return d.Y[indices[a]] < d.Y[indices[b]] })
	shardSize := d.Len() / total
	order := rng.Perm(total)
	out := make([][]int, n)
	for s, shard := range order {
		node := s / spn
		start := shard * shardSize
		end := start + shardSize
		if shard == total-1 {
			end = d.Len()
		}
		out[node] = append(out[node], indices[start:end]...)
	}
	return out, nil
}

func checkPartitionArgs(d *Dataset, n int) error {
	if n <= 0 {
		return fmt.Errorf("dataset: partition over %d nodes", n)
	}
	if d.Len() < n {
		return fmt.Errorf("dataset: %d samples for %d nodes", d.Len(), n)
	}
	return nil
}

// dirichletSample draws one symmetric Dirichlet(alpha) vector of length n
// via normalized Gamma(alpha,1) marginals.
func dirichletSample(rng *rand.Rand, alpha float64, n int) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = gammaSample(rng, alpha)
		sum += w[i]
	}
	if sum <= 0 {
		u := 1 / float64(n)
		for i := range w {
			w[i] = u
		}
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// gammaSample draws Gamma(shape,1) using Marsaglia–Tsang, with the boost
// trick for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
