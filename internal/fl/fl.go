// Package fl implements the federated-learning substrate the incentive
// mechanism prices: a parameter server, per-node local SGD training over σ
// epochs, and the FedAvg weighted aggregation of Eqn. (4).
//
// The engine is synchronous and deterministic given its RNG, matching the
// round-by-round model of the paper: download global parameters, run σ
// local epochs, upload, aggregate by sample count.
package fl

import (
	"fmt"
	"math"
	"math/rand"

	"chiron/internal/dataset"
	"chiron/internal/mat"
	"chiron/internal/nn"
)

// ModelFactory constructs a fresh, identically shaped model; each edge node
// and the server evaluation harness instantiate their own copy and exchange
// flat parameter vectors.
type ModelFactory func(rng *rand.Rand) (*nn.Network, error)

// The local-SGD settings every client shares.
const (
	// batchSize is the local mini-batch size (paper: 10).
	batchSize = 10
	// momentum is the local SGD momentum.
	momentum = 0.5
)

// Config parameterizes a federated training engine.
type Config struct {
	// Epochs is σ, the local epochs per round (paper: 5).
	Epochs int
	// LearningRate is the local SGD step size.
	LearningRate float64
}

// DefaultConfig mirrors the paper's local-training settings. The batch size
// and momentum are the constants above.
func DefaultConfig() Config {
	return Config{Epochs: 5, LearningRate: 0.05}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("fl: epochs %d, want > 0", c.Epochs)
	case c.LearningRate <= 0:
		return fmt.Errorf("fl: learning rate %v, want > 0", c.LearningRate)
	}
	return nil
}

// Client is one edge node's training state.
type Client struct {
	id    int
	data  *dataset.Dataset
	model *nn.Network
	cfg   Config
	rng   *rand.Rand
	opt   *nn.SGD

	// Recycled per-round buffers: softmax cross-entropy gradient and
	// probability scratch, and the uploaded flat parameter vector.
	grad  *mat.Matrix
	probs []float64
	flat  []float64
}

// NewClient builds a client over its local dataset. The model is created
// from factory but its parameters are always overwritten by the server's
// global vector at the start of each round.
func NewClient(id int, data *dataset.Dataset, factory ModelFactory, cfg Config, rng *rand.Rand) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("fl: client %d has no data", id)
	}
	model, err := factory(rng)
	if err != nil {
		return nil, fmt.Errorf("fl: client %d model: %w", id, err)
	}
	opt := nn.NewSGD(model.Params(), cfg.LearningRate, momentum)
	return &Client{id: id, data: data, model: model, cfg: cfg, rng: rng, opt: opt}, nil
}

// NumSamples returns |D_i|, the FedAvg weight.
func (c *Client) NumSamples() int { return c.data.Len() }

// TrainRound downloads the global parameters, runs σ local epochs of
// mini-batch SGD (ω ← ω − μ∇F_i), and returns the updated flat parameter
// vector along with the mean training loss of the final epoch.
//
// The returned slice is a recycled buffer owned by the client: it stays
// valid until this client's next TrainRound call, which is enough for the
// synchronous upload-then-aggregate round pipeline. Callers that retain a
// client's upload across rounds must copy it.
func (c *Client) TrainRound(global []float64) ([]float64, float64, error) {
	if err := c.model.LoadParams(global); err != nil {
		return nil, 0, fmt.Errorf("fl: client %d load: %w", c.id, err)
	}
	// The optimizer is persistent but its momentum state is not: each round
	// starts from fresh velocity, matching a per-round optimizer.
	c.opt.Reset()
	var lastLoss float64
	for epoch := 0; epoch < c.cfg.Epochs; epoch++ {
		c.data.Shuffle(c.rng)
		var epochLoss float64
		var batches int
		err := c.data.Batches(batchSize, func(x *mat.Matrix, y []int) error {
			logits, err := c.model.Forward(x)
			if err != nil {
				return err
			}
			c.grad = mat.Ensure(c.grad, logits.Rows(), logits.Cols())
			c.probs = mat.EnsureVec(c.probs, logits.Cols())
			loss, err := nn.SoftmaxCrossEntropyTo(c.grad, logits, y, c.probs)
			if err != nil {
				return err
			}
			if err := c.model.Backward(c.grad); err != nil {
				return err
			}
			if err := c.opt.Step(); err != nil {
				return err
			}
			epochLoss += loss
			batches++
			return nil
		})
		if err != nil {
			return nil, 0, fmt.Errorf("fl: client %d epoch %d: %w", c.id, epoch, err)
		}
		if batches > 0 {
			lastLoss = epochLoss / float64(batches)
		}
	}
	c.flat = mat.EnsureVec(c.flat, c.model.NumParams())
	if err := c.model.FlattenParamsInto(c.flat); err != nil {
		return nil, 0, fmt.Errorf("fl: client %d upload: %w", c.id, err)
	}
	return c.flat, lastLoss, nil
}

// Server is the FedAvg parameter server.
type Server struct {
	global []float64
	// scratch is the aggregation accumulator; after a successful round it
	// swaps roles with global so neither round allocates.
	scratch []float64
	test    *dataset.Dataset
	eval    *nn.Network
}

// NewServer builds a server holding the initial global model (from factory)
// and an evaluation copy scored against the held-out test set.
func NewServer(test *dataset.Dataset, factory ModelFactory, rng *rand.Rand) (*Server, error) {
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("fl: server needs a non-empty test set")
	}
	model, err := factory(rng)
	if err != nil {
		return nil, fmt.Errorf("fl: server model: %w", err)
	}
	return &Server{global: model.FlattenParams(), test: test, eval: model}, nil
}

// GlobalInto copies the current global parameter vector into dst, reusing
// its storage when it has room (mat.EnsureVec), and returns the (possibly
// reallocated) slice, so per-round download loops allocate nothing;
// GlobalInto(nil) is a fresh copy.
func (s *Server) GlobalInto(dst []float64) []float64 {
	dst = mat.EnsureVec(dst, len(s.global))
	copy(dst, s.global)
	return dst
}

// Update is one client's round contribution.
type Update struct {
	// Client identifies the uploading client, so rejections can name the
	// offender.
	Client int
	Params []float64
	// Samples is |D_i|, the FedAvg weight.
	Samples int
}

// Aggregate applies FedAvg (Eqn. 4): the new global model is the
// sample-count-weighted average of the uploaded parameter vectors. Updates
// with no samples, mismatched sizes, or non-finite (NaN/±Inf) parameters
// are rejected — a single poisoned vector would otherwise silently spread
// through the weighted average into the global model. Non-finite updates
// surface as a *CorruptUpdateError naming the offending client. Finite
// uploads near ±MaxFloat64 can still round their weighted sum to ±Inf, so
// a non-finite average refuses the round too. The global model is left
// untouched on any error.
func (s *Server) Aggregate(updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("fl: aggregate with no updates")
	}
	var total float64
	for i, u := range updates {
		if len(u.Params) != len(s.global) {
			return fmt.Errorf("fl: update %d has %d params, want %d", i, len(u.Params), len(s.global))
		}
		if u.Samples <= 0 {
			return fmt.Errorf("fl: update %d has %d samples", i, u.Samples)
		}
		if j, bad := firstNonFinite(u.Params); bad {
			return &CorruptUpdateError{Client: u.Client, Reason: fmt.Sprintf("non-finite parameter %v at index %d", u.Params[j], j)}
		}
		total += float64(u.Samples)
	}
	s.scratch = mat.EnsureVec(s.scratch, len(s.global))
	next := s.scratch
	for j := range next {
		next[j] = 0
	}
	for _, u := range updates {
		w := float64(u.Samples) / total
		for j, v := range u.Params {
			next[j] += w * v
		}
	}
	if j, bad := firstNonFinite(next); bad {
		return fmt.Errorf("fl: aggregate overflowed to %v at index %d", next[j], j)
	}
	// Swap rather than copy: the old global becomes next round's scratch.
	s.global, s.scratch = next, s.global
	return nil
}

// CorruptUpdateError reports an upload Aggregate refused for non-finite
// parameters; it names the offending client so the caller can exclude,
// refuse payment to, or log it.
type CorruptUpdateError struct {
	Client int
	Reason string
}

// Error implements error.
func (e *CorruptUpdateError) Error() string {
	return fmt.Sprintf("fl: corrupt update from client %d: %s", e.Client, e.Reason)
}

// firstNonFinite returns the index of the first NaN/±Inf entry, if any.
func firstNonFinite(params []float64) (int, bool) {
	for i, v := range params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i, true
		}
	}
	return 0, false
}

// Evaluate scores the current global model on the held-out test set and
// returns its top-1 accuracy A(ω).
func (s *Server) Evaluate() (float64, error) {
	if err := s.eval.LoadParams(s.global); err != nil {
		return 0, fmt.Errorf("fl: evaluate load: %w", err)
	}
	var correctWeighted float64
	var n int
	err := s.test.Batches(256, func(x *mat.Matrix, y []int) error {
		logits, err := s.eval.Forward(x)
		if err != nil {
			return err
		}
		acc, err := nn.Accuracy(logits, y)
		if err != nil {
			return err
		}
		correctWeighted += acc * float64(len(y))
		n += len(y)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("fl: evaluate: %w", err)
	}
	if n == 0 {
		return 0, fmt.Errorf("fl: evaluate on empty test set")
	}
	return correctWeighted / float64(n), nil
}
