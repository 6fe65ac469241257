package baselines

import (
	"fmt"

	"chiron/internal/edgeenv"
	"chiron/internal/mechanism"
	"chiron/internal/policy"
)

// staticActor adapts a StaticHead to the driver's Actor surface — the
// shared composition behind the non-learning references (Uniform,
// EqualTime), which run through the same episode loop as the learners but
// observe nothing and never update.
type staticActor struct {
	head *policy.StaticHead
}

func (a staticActor) Decide(bool) ([]float64, error)         { return a.head.Prices(), nil }
func (a staticActor) Observe(edgeenv.StepResult, bool) error { return nil }
func (a staticActor) Discard(bool)                           {}
func (a staticActor) EndEpisode(bool) error                  { return nil }

// static runs a StaticHead through an unexported episode driver. It does
// not embed *mechanism.Driver the way the learners do: that would promote
// Train and make the references mechanism.Trainable, so every harness
// would "train" them.
type static struct {
	drv *mechanism.Driver
}

// newStatic binds a static head posting prices to env under name.
func newStatic(name string, env *edgeenv.Env, prices []float64) (static, error) {
	head, err := policy.NewStaticHead(prices)
	if err != nil {
		return static{}, err
	}
	return static{drv: mechanism.NewDriver(name, env, staticActor{head: head})}, nil
}

// Name implements mechanism.Mechanism.
func (s static) Name() string { return s.drv.Name() }

// Env implements mechanism.Mechanism.
func (s static) Env() *edgeenv.Env { return s.drv.Env() }

// RunEpisode implements mechanism.Mechanism. The train flag is ignored —
// a static head has nothing to learn.
func (s static) RunEpisode(train bool) (mechanism.EpisodeResult, error) {
	return s.drv.RunEpisode(train)
}

// Uniform is a static reference mechanism: every round it posts the same
// total price, split equally across nodes. It is not a paper baseline but
// serves as the ablation floor — any learning mechanism should beat it —
// and as a deterministic fixture for tests.
type Uniform struct {
	static
}

var _ mechanism.Mechanism = (*Uniform)(nil)

// NewUniform builds the reference mechanism. fraction ∈ (0,1] scales the
// per-round total price as a share of the environment's MaxTotalPrice.
func NewUniform(env *edgeenv.Env, fraction float64) (*Uniform, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("baselines: uniform fraction %v outside (0,1]", fraction)
	}
	n := env.NumNodes()
	per := fraction * env.MaxTotalPrice() / float64(n)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = per
	}
	st, err := newStatic("Uniform", env, prices)
	if err != nil {
		return nil, fmt.Errorf("baselines: uniform: %w", err)
	}
	return &Uniform{st}, nil
}
