package accuracy

import (
	"fmt"
	"math/rand"

	"chiron/internal/dataset"
	"chiron/internal/fl"
)

// RealTrainer measures A(ω_k) by actually running federated training: each
// Advance performs one FedAvg round over the participating clients and
// evaluates the aggregated global model on a held-out test set. This is the
// paper's "only through real model training can we precisely obtain the
// correct model accuracy" path, built on the pure-Go nn/fl substrates.
type RealTrainer struct {
	spec     dataset.SynthSpec
	parts    dataset.Partitioner
	factory  fl.ModelFactory
	cfg      fl.Config
	numNodes int
	seedBase int64
	episode  int
	clients  []*fl.Client
	server   *fl.Server
	acc      float64

	// Recycled per-round buffers for the global download and the upload
	// batch, so Advance allocates nothing in steady state.
	globalBuf []float64
	updates   []fl.Update
}

// testFraction is the held-out share of each episode's dataset on which the
// global model's accuracy is measured.
const testFraction = 0.2

// RealTrainerConfig bundles the construction parameters for a RealTrainer.
type RealTrainerConfig struct {
	// Spec describes the synthetic dataset to generate per episode.
	Spec dataset.SynthSpec
	// Partitioner splits training data across nodes (nil means IID).
	Partitioner dataset.Partitioner
	// Factory builds the model architecture every participant trains.
	Factory fl.ModelFactory
	// Train holds the local-SGD hyperparameters.
	Train fl.Config
	// NumNodes is the fleet size.
	NumNodes int
	// Seed derives the per-episode RNG streams.
	Seed int64
}

// NewRealTrainer validates the configuration and prepares the first
// episode.
func NewRealTrainer(cfg RealTrainerConfig) (*RealTrainer, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("accuracy: real trainer needs a model factory")
	}
	if cfg.NumNodes <= 0 {
		return nil, fmt.Errorf("accuracy: real trainer nodes %d, want > 0", cfg.NumNodes)
	}
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	parts := cfg.Partitioner
	if parts == nil {
		parts = dataset.IID{}
	}
	t := &RealTrainer{
		spec:     cfg.Spec,
		parts:    parts,
		factory:  cfg.Factory,
		cfg:      cfg.Train,
		numNodes: cfg.NumNodes,
		seedBase: cfg.Seed,
	}
	if _, err := t.Reset(); err != nil {
		return nil, err
	}
	return t, nil
}

var _ Model = (*RealTrainer)(nil)

// Reset implements Model: it regenerates the dataset, repartitions it, and
// reinitializes the global model for a fresh episode.
func (t *RealTrainer) Reset() (float64, error) {
	t.episode++
	rng := rand.New(rand.NewSource(t.seedBase + int64(t.episode)*7919))
	full, err := dataset.Generate(rng, t.spec)
	if err != nil {
		return 0, fmt.Errorf("accuracy: real trainer dataset: %w", err)
	}
	train, test, err := full.Split(rng, testFraction)
	if err != nil {
		return 0, fmt.Errorf("accuracy: real trainer split: %w", err)
	}
	partIdx, err := t.parts.Partition(rng, train, t.numNodes)
	if err != nil {
		return 0, fmt.Errorf("accuracy: real trainer partition: %w", err)
	}
	t.clients = make([]*fl.Client, t.numNodes)
	for i, idx := range partIdx {
		local, err := train.Subset(idx)
		if err != nil {
			return 0, fmt.Errorf("accuracy: real trainer node %d subset: %w", i, err)
		}
		client, err := fl.NewClient(i, local, t.factory, t.cfg, rand.New(rand.NewSource(t.seedBase+int64(t.episode)*104729+int64(i))))
		if err != nil {
			return 0, err
		}
		t.clients[i] = client
	}
	t.server, err = fl.NewServer(test, t.factory, rng)
	if err != nil {
		return 0, err
	}
	t.acc, err = t.server.Evaluate()
	if err != nil {
		return 0, err
	}
	return t.acc, nil
}

// Advance implements Model: the listed participants each run σ local
// epochs from the current global model, the server aggregates with FedAvg,
// and the new global accuracy is measured on the test set.
func (t *RealTrainer) Advance(participants []int) (float64, error) {
	if len(participants) == 0 {
		return t.acc, nil
	}
	t.globalBuf = t.server.GlobalInto(t.globalBuf)
	global := t.globalBuf
	updates := t.updates[:0]
	for _, id := range participants {
		if id < 0 || id >= len(t.clients) {
			return 0, fmt.Errorf("accuracy: participant %d out of range [0,%d)", id, len(t.clients))
		}
		params, _, err := t.clients[id].TrainRound(global)
		if err != nil {
			return 0, err
		}
		updates = append(updates, fl.Update{Client: id, Params: params, Samples: t.clients[id].NumSamples()})
	}
	t.updates = updates
	if err := t.server.Aggregate(updates); err != nil {
		return 0, err
	}
	acc, err := t.server.Evaluate()
	if err != nil {
		return 0, err
	}
	t.acc = acc
	return acc, nil
}

// Accuracy implements Model.
func (t *RealTrainer) Accuracy() float64 { return t.acc }
