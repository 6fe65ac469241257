package device

import (
	"fmt"
	"math/rand"
	"unsafe"
)

// Fleet is the struct-of-arrays batch form of a device fleet: one
// contiguous []float64 column per node parameter, plus the derived columns
// the Eqn. (11)/(12) kernels need, precomputed once at construction. It is
// the data layout that makes million-node rounds tractable — the round
// pipeline streams whole columns through the destination-passing kernels
// instead of chasing per-node struct pointers.
//
// Derived columns are computed with exactly the scalar methods' expression
// order (workload = float64(σ)·c·d, priceCoef = (2·α)·w, energyCoef = α·w),
// so every batch kernel below is bit-identical to the corresponding
// per-node Node method — the contract pinned by the propcheck
// batch-vs-scalar property. A Fleet is immutable after construction and
// therefore safe for concurrent reads from any number of worker shards.
type Fleet struct {
	n int

	// Per-node parameter columns, index-aligned with node IDs 0..n-1.
	CyclesPerBit   []float64 // c_i
	DataBits       []float64 // d_i
	FreqMin        []float64 // ζ_min bound
	FreqMax        []float64 // ζ_max bound
	Capacitance    []float64 // α_i
	CommTime       []float64 // nominal T^com_i
	CommEnergyRate []float64 // ε_i
	Reserve        []float64 // μ_i
	Epochs         []int     // σ_i
	SampleCount    []int     // |D_i|

	// Derived columns (precomputed, never mutated).
	workload   []float64 // σ·c·d, the cycles of one local round
	priceCoef  []float64 // 2·α·w — Eqn. (11) denominator and PriceForFreq slope
	energyCoef []float64 // α·w — the E^cmp coefficient
}

// NewFleetBatch draws a heterogeneous fleet directly into columns: the
// nodes of each spec in turn, all from rng, into one fleet. It keeps
// NewFleet's per-node draw order (DataBits, FreqMax, CommTime, Reserve), so
// a given rng seed yields the bit-identical fleet in either layout, and
// several specs yield the nodes NewFleet would draw for each in order.
// It is how callers drawing from specs build the fleet the round pipeline
// runs over; NewFleet stays as the per-node reference. Every draw lies
// within its validated spec's bounds, so the fleet passes Fleet.Validate
// without being checked again here; edgeenv.Config.Validate is the one
// check of the fleet an environment runs over.
func NewFleetBatch(rng *rand.Rand, specs ...FleetSpec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("device: no fleet spec")
	}
	n := 0
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		n += spec.N
	}
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	f := newEmptyFleet(n)
	i := 0
	for _, spec := range specs {
		for end := i + spec.N; i < end; i++ {
			f.CyclesPerBit[i] = spec.CyclesPerBit
			f.DataBits[i] = uniform(spec.DataBitsMin, spec.DataBitsMax)
			f.FreqMin[i] = spec.FreqMin
			f.FreqMax[i] = uniform(spec.FreqMaxLow, spec.FreqMaxHigh)
			f.Capacitance[i] = spec.Capacitance
			f.CommTime[i] = uniform(spec.CommTimeMin, spec.CommTimeMax)
			f.CommEnergyRate[i] = spec.CommEnergyRate
			f.Reserve[i] = uniform(0, spec.ReserveMax)
			f.Epochs[i] = spec.Epochs
			f.SampleCount[i] = spec.SamplesPerNode
		}
	}
	f.derive()
	return f, nil
}

// FromNodes packs an existing per-node fleet into columns — the entry
// point for callers holding explicit nodes. Node IDs are ignored: column
// index i holds nodes[i].
func FromNodes(nodes []*Node) *Fleet {
	f := newEmptyFleet(len(nodes))
	for i, n := range nodes {
		f.CyclesPerBit[i] = n.CyclesPerBit
		f.DataBits[i] = n.DataBits
		f.FreqMin[i] = n.FreqMin
		f.FreqMax[i] = n.FreqMax
		f.Capacitance[i] = n.Capacitance
		f.CommTime[i] = n.CommTime
		f.CommEnergyRate[i] = n.CommEnergyRate
		f.Reserve[i] = n.Reserve
		f.Epochs[i] = n.Epochs
		f.SampleCount[i] = n.SampleCount
	}
	f.derive()
	return f
}

// newEmptyFleet allocates all columns for n nodes as consecutive n-long
// windows of one slab, each capped at its window; the two int columns view
// their windows as int, which is no wider than float64 on any platform.
// One allocation per fleet keeps the peak resident set of a process that
// builds fleet after fleet steady: a collection the fleet triggers starts
// after all of it is placed, not at whichever of 13 column allocations the
// GC pacer picked, which decided how many columns landed on fresh pages.
func newEmptyFleet(n int) *Fleet {
	slab := make([]float64, 13*n)
	col := func(k int) []float64 { return slab[k*n : (k+1)*n : (k+1)*n] }
	intCol := func(k int) []int {
		return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(col(k)))), n)
	}
	return &Fleet{
		n:              n,
		CyclesPerBit:   col(0),
		DataBits:       col(1),
		FreqMin:        col(2),
		FreqMax:        col(3),
		Capacitance:    col(4),
		CommTime:       col(5),
		CommEnergyRate: col(6),
		Reserve:        col(7),
		Epochs:         intCol(8),
		SampleCount:    intCol(9),
		workload:       col(10),
		priceCoef:      col(11),
		energyCoef:     col(12),
	}
}

// derive fills the precomputed columns. The expressions mirror the scalar
// methods exactly: workload() = float64(σ)*c*d, the Eqn. (11) denominator
// 2*α*w left-associated as (2*α)*w, and the E^cmp coefficient α*w.
func (f *Fleet) derive() {
	for i := 0; i < f.n; i++ {
		w := float64(f.Epochs[i]) * f.CyclesPerBit[i] * f.DataBits[i]
		f.workload[i] = w
		f.priceCoef[i] = 2 * f.Capacitance[i] * w
		f.energyCoef[i] = f.Capacitance[i] * w
	}
}

// Len returns the fleet size N.
func (f *Fleet) Len() int { return f.n }

// Node materializes node i as a value — the thin per-node view over the
// batch that keeps the scalar Node API available for spot checks, tests,
// and small-fleet callers without holding N structs alive.
func (f *Fleet) Node(i int) Node {
	return Node{
		ID:             i,
		CyclesPerBit:   f.CyclesPerBit[i],
		DataBits:       f.DataBits[i],
		FreqMin:        f.FreqMin[i],
		FreqMax:        f.FreqMax[i],
		Capacitance:    f.Capacitance[i],
		CommTime:       f.CommTime[i],
		CommEnergyRate: f.CommEnergyRate[i],
		Reserve:        f.Reserve[i],
		Epochs:         f.Epochs[i],
		SampleCount:    f.SampleCount[i],
	}
}

// Nodes materializes the whole fleet as per-node structs — compatibility
// for callers that still want the AoS view. Cost is O(N) structs; callers
// at fleet scale should stay on the columns.
func (f *Fleet) Nodes() []*Node {
	nodes := make([]*Node, f.n)
	for i := range nodes {
		n := f.Node(i)
		nodes[i] = &n
	}
	return nodes
}

// Validate checks every node's parameters, reporting the first offender.
func (f *Fleet) Validate() error {
	for i := 0; i < f.n; i++ {
		n := f.Node(i)
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Workload returns σ·c·d for node i (exposed for tests and analysis).
func (f *Fleet) Workload(i int) float64 { return f.workload[i] }

// PriceForFreq returns the price making freq node i's interior best
// response — identical to Node.PriceForFreq.
func (f *Fleet) PriceForFreq(i int, freq float64) float64 {
	return f.priceCoef[i] * freq
}

// MaxTotalPrice returns Σ_i p_i(ζ_i^max) accumulated in ascending node
// order — the same reduction order the per-node loop used, so the exterior
// action bound is bit-identical in either layout.
func (f *Fleet) MaxTotalPrice() float64 {
	var sum float64
	for i := 0; i < f.n; i++ {
		sum += f.priceCoef[i] * f.FreqMax[i]
	}
	return sum
}

// BatchResponse is the struct-of-arrays form of Response: column i holds
// node i's reaction to the posted price. Joined is the participation
// screen; declined nodes carry zeros in every other column, exactly like
// the scalar zero Response. Util and Energy are optional — leave them nil
// when only the round pipeline's columns (Joined/Freq/Time/Payment) are
// needed.
type BatchResponse struct {
	Joined  []bool
	Freq    []float64
	Time    []float64
	Payment []float64
	Util    []float64 // optional
	Energy  []float64 // optional
}

// BestResponseRange plays OP_{i,k} for nodes [lo,hi): the Eqn. (11)
// interior optimum clipped to the frequency box, the Eqn. (8) reserve
// participation screen, and the realized payment/time/energy — the
// vectorized form of Node.BestResponseWithComm, bit-identical to it per
// element (same expression order, no reassociation).
//
// commTimes supplies each node's round-specific upload time (the paper's
// B_{i,k} jitter); eligible masks nodes outside the round (churned away or
// unavailable) — nil means every node is eligible. Declined and ineligible
// nodes are fully zeroed in out, so reused buffers never leak stale state.
// The method only writes indices in [lo,hi) and reads immutable columns,
// so disjoint ranges are safe to compute concurrently — this is the kernel
// the round pipeline shards into node bands.
func (f *Fleet) BestResponseRange(lo, hi int, prices, commTimes []float64, eligible []bool, out *BatchResponse) {
	for i := lo; i < hi; i++ {
		price := prices[i]
		commTime := commTimes[i]
		if (eligible != nil && !eligible[i]) || price <= 0 || commTime < 0 {
			f.zeroResponse(i, out)
			continue
		}
		// Unconstrained maximizer of the strictly concave u(ζ), then the
		// box clip — Eqn. (11) exactly as the scalar method computes it.
		freq := price / f.priceCoef[i]
		if freq < f.FreqMin[i] {
			freq = f.FreqMin[i]
		} else if freq > f.FreqMax[i] {
			freq = f.FreqMax[i]
		}
		energy := f.energyCoef[i]*freq*freq + f.CommEnergyRate[i]*commTime
		u := price*freq - energy
		if u < f.Reserve[i] {
			f.zeroResponse(i, out)
			continue
		}
		out.Joined[i] = true
		out.Freq[i] = freq
		out.Time[i] = f.workload[i]/freq + commTime
		out.Payment[i] = price * freq
		if out.Util != nil {
			out.Util[i] = u
		}
		if out.Energy != nil {
			out.Energy[i] = energy
		}
	}
}

// zeroResponse clears node i's columns in out.
func (f *Fleet) zeroResponse(i int, out *BatchResponse) {
	out.Joined[i] = false
	out.Freq[i] = 0
	out.Time[i] = 0
	out.Payment[i] = 0
	if out.Util != nil {
		out.Util[i] = 0
	}
	if out.Energy != nil {
		out.Energy[i] = 0
	}
}
