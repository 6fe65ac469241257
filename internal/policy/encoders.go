package policy

import (
	"fmt"

	"chiron/internal/edgeenv"
	"chiron/internal/mat"
)

// An Encoder renders one feature block of an agent observation into a
// caller-provided slice. Encoders are pure functions of the environment —
// they never draw randomness — so re-encoding the same environment state is
// bit-identical, which is what lets every mechanism re-derive its
// observation on demand instead of threading state slices around.
type Encoder interface {
	// Dim is the block's feature count.
	Dim() int
	// EncodeTo fills dst (length Dim) with the block's current features.
	EncodeTo(dst []float64)
}

// HistoryEncoder renders the windowed round history of the paper's exterior
// state s^E_k: the most recent L rounds of {ζ, p, T} per node, oldest slot
// first, zero-padded before round L. All values are normalized by the
// fleet's saturation constants to keep the policy network well conditioned.
type HistoryEncoder struct {
	env                           *edgeenv.Env
	nodes, window                 int
	freqNorm, priceNorm, timeNorm float64
}

// NewHistoryEncoder builds the encoder over env's ledger and fleet norms.
func NewHistoryEncoder(env *edgeenv.Env) *HistoryEncoder {
	fn, pn, tn := env.Norms()
	return &HistoryEncoder{
		env:       env,
		nodes:     env.NumNodes(),
		window:    env.Config().HistoryLen,
		freqNorm:  fn,
		priceNorm: pn,
		timeNorm:  tn,
	}
}

// Dim implements Encoder: 3·N·L history values.
func (h *HistoryEncoder) Dim() int { return 3 * h.nodes * h.window }

// EncodeTo implements Encoder.
//
// The node axis is clamped per round record: a record narrower than the
// fleet (a round played while churn had shrunk the roster, or a legacy
// trace) contributes zeros for the missing tail instead of panicking, so
// the observation shape stays fixed while the fleet varies. Compact
// (fleet-scale aggregate) records carry no per-node vectors and encode as
// all-zero slots — fleet-scale mechanisms condition on aggregate encoders
// instead.
//
// Each {ζ, p, T} block streams through the destination-passing
// mat.DivScalarVecTo kernel — a true per-element division, so the encoding
// is bit-identical to the scalar loop it replaces.
func (h *HistoryEncoder) EncodeTo(dst []float64) {
	mat.FillVec(dst, 0)
	rounds := h.env.Ledger().Rounds()
	n := h.nodes
	for slot := 0; slot < h.window; slot++ {
		idx := len(rounds) - h.window + slot
		if idx < 0 {
			continue
		}
		r := &rounds[idx]
		base := slot * 3 * n
		m := n
		for _, l := range []int{len(r.Freqs), len(r.Prices), len(r.Times)} {
			if l < m {
				m = l
			}
		}
		if m == 0 {
			continue
		}
		mat.DivScalarVecTo(dst[base:base+m], r.Freqs[:m], h.freqNorm)
		mat.DivScalarVecTo(dst[base+n:base+n+m], r.Prices[:m], h.priceNorm)
		mat.DivScalarVecTo(dst[base+2*n:base+2*n+m], r.Times[:m], h.timeNorm)
	}
}

// BudgetRoundEncoder renders the two long-term features that distinguish
// Chiron's exterior state from the myopic baselines: the remaining budget
// fraction and the normalized round index.
type BudgetRoundEncoder struct {
	env *edgeenv.Env
}

// NewBudgetRoundEncoder builds the encoder over env's ledger.
func NewBudgetRoundEncoder(env *edgeenv.Env) *BudgetRoundEncoder {
	return &BudgetRoundEncoder{env: env}
}

// Dim implements Encoder.
func (b *BudgetRoundEncoder) Dim() int { return 2 }

// EncodeTo implements Encoder.
func (b *BudgetRoundEncoder) EncodeTo(dst []float64) {
	ledger := b.env.Ledger()
	dst[0] = ledger.Remaining() / ledger.Budget()
	dst[1] = float64(b.env.Round()) / float64(b.env.Config().MaxRounds)
}

// Concat composes encoders into one observation vector, each block laid out
// in order.
type Concat struct {
	parts []Encoder
	dim   int
}

// NewConcat composes the given encoder blocks.
func NewConcat(parts ...Encoder) (*Concat, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("policy: concat of no encoders")
	}
	c := &Concat{parts: parts}
	for _, p := range parts {
		c.dim += p.Dim()
	}
	return c, nil
}

// Dim implements Encoder.
func (c *Concat) Dim() int { return c.dim }

// EncodeTo implements Encoder.
func (c *Concat) EncodeTo(dst []float64) {
	off := 0
	for _, p := range c.parts {
		p.EncodeTo(dst[off : off+p.Dim()])
		off += p.Dim()
	}
}

// State encodes the observation into a fresh slice the caller owns — the
// form rollout buffers store.
func (c *Concat) State() []float64 {
	dst := make([]float64, c.dim)
	c.EncodeTo(dst)
	return dst
}

// NewExteriorEncoder composes the paper's full exterior observation
// s^E_k = [history window | budget fraction, round index].
func NewExteriorEncoder(env *edgeenv.Env) (*Concat, error) {
	return NewConcat(NewHistoryEncoder(env), NewBudgetRoundEncoder(env))
}

// NewMyopicEncoder composes the DRL-based baseline's observation: the
// history window only, with the two long-term entries deliberately absent —
// the defining difference from Chiron's exterior agent.
func NewMyopicEncoder(env *edgeenv.Env) (*Concat, error) {
	return NewConcat(NewHistoryEncoder(env))
}

// ConditioningEncoder renders the exterior action as the inner agent's
// observation (the hierarchy of Fig. 2): the chosen total price normalized
// by the fleet's saturation price.
type ConditioningEncoder struct {
	maxTotal float64
}

// NewConditioningEncoder builds the encoder for env's action scale.
func NewConditioningEncoder(env *edgeenv.Env) ConditioningEncoder {
	return ConditioningEncoder{maxTotal: env.MaxTotalPrice()}
}

// Dim is the conditioning feature count.
func (ConditioningEncoder) Dim() int { return 1 }

// State encodes the exterior total price into a fresh slice.
func (e ConditioningEncoder) State(total float64) []float64 {
	return []float64{total / e.maxTotal}
}
