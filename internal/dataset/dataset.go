// Package dataset provides procedurally generated stand-ins for the three
// image-classification datasets the paper evaluates on (MNIST,
// Fashion-MNIST, CIFAR-10), plus the IID and non-IID partitioners that
// split them across edge nodes.
//
// Real archives are unavailable in this offline reproduction, so each
// synthetic dataset draws samples from class-conditional structured
// patterns with tunable intra-class variation, label noise, and class
// overlap; the three presets are calibrated so their relative learning
// difficulty matches the originals (MNIST easiest, CIFAR-10 hardest),
// which is the property the incentive mechanism actually consumes.
package dataset

import (
	"fmt"
	"math/rand"

	"chiron/internal/mat"
)

// Dataset is a labeled classification sample set with a fixed feature
// layout (one flattened sample per matrix row).
type Dataset struct {
	X       *mat.Matrix
	Y       []int
	Classes int

	// Recycled Batches buffers: one for full-size batches, one for the
	// short tail batch, so an epoch of mini-batching allocates nothing
	// after the first pass.
	batchBuf, tailBuf *mat.Matrix
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim reports the feature dimensionality.
func (d *Dataset) Dim() int {
	if d.X == nil {
		return 0
	}
	return d.X.Cols()
}

// Subset returns a dataset view containing the given sample indices. The
// feature rows are copied so the subset is independent of the parent.
func (d *Dataset) Subset(indices []int) (*Dataset, error) {
	sub := &Dataset{X: mat.New(len(indices), d.Dim()), Y: make([]int, len(indices)), Classes: d.Classes}
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			return nil, fmt.Errorf("dataset: subset index %d out of range [0,%d)", idx, d.Len())
		}
		copy(sub.X.Row(i), d.X.Row(idx))
		sub.Y[i] = d.Y[idx]
	}
	return sub, nil
}

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	tmp := make([]float64, d.Dim())
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri, rj := d.X.Row(i), d.X.Row(j)
		copy(tmp, ri)
		copy(ri, rj)
		copy(rj, tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

// Split divides the dataset into a training and test set, with testFrac of
// the samples (rounded down, at least one when possible) in the test set.
func (d *Dataset) Split(rng *rand.Rand, testFrac float64) (train, test *Dataset, err error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: test fraction %v outside [0,1)", testFrac)
	}
	perm := rng.Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	test, err = d.Subset(perm[:nTest])
	if err != nil {
		return nil, nil, err
	}
	train, err = d.Subset(perm[nTest:])
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Batches cuts the dataset into consecutive mini-batches of the given size
// (the final batch may be short) and calls fn for each. Shuffle first for
// stochastic gradient descent. The batch matrix passed to fn is a recycled
// buffer owned by the dataset: it is valid only for the duration of the
// callback and is overwritten by the next batch.
func (d *Dataset) Batches(size int, fn func(x *mat.Matrix, y []int) error) error {
	if size <= 0 {
		return fmt.Errorf("dataset: batch size %d, want > 0", size)
	}
	for start := 0; start < d.Len(); start += size {
		end := start + size
		if end > d.Len() {
			end = d.Len()
		}
		rows := end - start
		var x *mat.Matrix
		if rows == size {
			d.batchBuf = mat.Ensure(d.batchBuf, rows, d.Dim())
			x = d.batchBuf
		} else {
			d.tailBuf = mat.Ensure(d.tailBuf, rows, d.Dim())
			x = d.tailBuf
		}
		for r := 0; r < rows; r++ {
			copy(x.Row(r), d.X.Row(start+r))
		}
		if err := fn(x, d.Y[start:end]); err != nil {
			return err
		}
	}
	return nil
}
