package device

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestNewFleetBatchMatchesNewFleet pins the layout contract: the same seed
// yields the bit-identical fleet whether drawn into per-node structs or
// directly into columns, for one spec and for several drawn in turn from
// one rng.
func TestNewFleetBatchMatchesNewFleet(t *testing.T) {
	fast := DefaultFleetSpec(5)
	fast.FreqMaxLow, fast.FreqMaxHigh, fast.CommTimeMax = 3e9, 4e9, 12
	for _, specs := range [][]FleetSpec{
		{DefaultFleetSpec(64)},
		{DefaultFleetSpec(3), fast, DefaultFleetSpec(1)},
	} {
		rng := rand.New(rand.NewSource(7))
		var nodes []*Node
		for _, spec := range specs {
			class, err := NewFleet(rng, spec)
			if err != nil {
				t.Fatalf("NewFleet: %v", err)
			}
			nodes = append(nodes, class...)
		}
		fleet, err := NewFleetBatch(rand.New(rand.NewSource(7)), specs...)
		if err != nil {
			t.Fatalf("NewFleetBatch: %v", err)
		}
		if fleet.Len() != len(nodes) {
			t.Fatalf("fleet len %d, want %d", fleet.Len(), len(nodes))
		}
		for i, n := range nodes {
			v := fleet.Node(i)
			v.ID = n.ID // NewFleet numbers IDs; the column view uses the index
			if v != *n {
				t.Fatalf("%d specs, node %d: batch view %+v != struct %+v", len(specs), i, v, *n)
			}
		}
	}
	if _, err := NewFleetBatch(rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("NewFleetBatch accepted no spec")
	}
	if _, err := NewFleetBatch(rand.New(rand.NewSource(7)), DefaultFleetSpec(2), DefaultFleetSpec(0)); err == nil {
		t.Fatal("NewFleetBatch accepted an empty second spec")
	}
}

// TestNewFleetBatchBoundarySpecsValidate pins the invariant that lets
// NewFleetBatch return what it drew unchecked: every node drawn from a
// valid spec passes Fleet.Validate, also at the edges of the spec's
// ranges — degenerate ranges (lo == hi), upper bounds of math.MaxFloat64,
// the widest positive ranges and a zero reserve cap.
func TestNewFleetBatchBoundarySpecsValidate(t *testing.T) {
	const maxF = math.MaxFloat64
	point := DefaultFleetSpec(16)
	point.DataBitsMax = point.DataBitsMin
	point.FreqMaxLow, point.FreqMaxHigh = point.FreqMin, point.FreqMin
	point.CommTimeMax = point.CommTimeMin
	point.ReserveMax = 0
	silent := point
	silent.CommTimeMin, silent.CommTimeMax, silent.CommEnergyRate = 0, 0, 0
	huge := DefaultFleetSpec(16)
	huge.CyclesPerBit, huge.Capacitance, huge.CommEnergyRate = maxF, maxF, maxF
	huge.DataBitsMax, huge.FreqMaxHigh, huge.CommTimeMax, huge.ReserveMax = maxF, maxF, maxF, maxF
	top := huge
	top.DataBitsMin, top.FreqMin, top.FreqMaxLow, top.CommTimeMin = maxF, maxF, maxF, maxF
	wide := huge
	wide.DataBitsMin, wide.FreqMin, wide.FreqMaxLow, wide.CommTimeMin = 5e-324, 5e-324, 5e-324, 0
	specs := map[string]FleetSpec{"point": point, "silent": silent, "huge": huge, "top": top, "wide": wide}
	for name, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s spec: %v", name, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			fleet, err := NewFleetBatch(rand.New(rand.NewSource(seed)), spec)
			if err != nil {
				t.Fatalf("%s spec, seed %d: NewFleetBatch: %v", name, seed, err)
			}
			if err := fleet.Validate(); err != nil {
				t.Errorf("%s spec, seed %d: drawn fleet invalid: %v", name, seed, err)
			}
		}
	}
	fleet, err := NewFleetBatch(rand.New(rand.NewSource(7)), point, silent, huge, top, wide)
	if err != nil {
		t.Fatalf("NewFleetBatch of every boundary spec: %v", err)
	}
	if err := fleet.Validate(); err != nil {
		t.Errorf("fleet drawn from every boundary spec invalid: %v", err)
	}
}

// TestFromNodesRoundTrip pins Fleet ⇄ []*Node conversion.
func TestFromNodesRoundTrip(t *testing.T) {
	nodes, err := NewFleet(rand.New(rand.NewSource(3)), DefaultFleetSpec(17))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	fleet := FromNodes(nodes)
	back := fleet.Nodes()
	for i := range nodes {
		a, b := *nodes[i], *back[i]
		a.ID, b.ID = 0, 0
		if a != b {
			t.Fatalf("node %d: round trip %+v != %+v", i, b, a)
		}
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
}

// TestBestResponseRangeMatchesScalar pins the tentpole bit-identity
// contract on a dense price grid: the batched kernel must reproduce
// Node.BestResponseWithComm to the last ULP, including the decline paths.
func TestBestResponseRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nodes, err := NewFleet(rng, DefaultFleetSpec(40))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	fleet := FromNodes(nodes)
	n := fleet.Len()
	prices := make([]float64, n)
	comm := make([]float64, n)
	out := newBatchResponse(n)
	out.Util = make([]float64, n)
	out.Energy = make([]float64, n)
	for trial := 0; trial < 50; trial++ {
		for i := 0; i < n; i++ {
			// Cover decline (non-positive price), interior, and both clip
			// branches.
			prices[i] = (rng.Float64()*3 - 0.2) * fleet.PriceForFreq(i, fleet.FreqMax[i])
			comm[i] = fleet.CommTime[i] * (0.5 + rng.Float64())
		}
		fleet.BestResponseRange(0, n, prices, comm, nil, &out)
		for i := 0; i < n; i++ {
			want := nodes[i].BestResponseWithComm(prices[i], comm[i])
			if out.Joined[i] != want.Participating ||
				out.Freq[i] != want.Freq ||
				out.Time[i] != want.Time ||
				out.Payment[i] != want.Payment ||
				out.Util[i] != want.Utility ||
				out.Energy[i] != want.Energy {
				t.Fatalf("trial %d node %d: batch {%v %v %v %v %v %v} != scalar %+v",
					trial, i, out.Joined[i], out.Freq[i], out.Time[i],
					out.Payment[i], out.Util[i], out.Energy[i], want)
			}
		}
	}
}

// TestBestResponseRangeEligibleMask pins that masked nodes zero out
// without reading the price, and stale buffer contents never leak.
func TestBestResponseRangeEligibleMask(t *testing.T) {
	nodes, err := NewFleet(rand.New(rand.NewSource(5)), DefaultFleetSpec(8))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	fleet := FromNodes(nodes)
	n := fleet.Len()
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = fleet.PriceForFreq(i, fleet.FreqMax[i])
	}
	eligible := make([]bool, n)
	for i := range eligible {
		eligible[i] = i%2 == 0
	}
	out := newBatchResponse(n)
	// Poison the buffers to prove declined nodes are rewritten.
	for i := range out.Freq {
		out.Joined[i] = true
		out.Freq[i] = math.NaN()
		out.Time[i] = math.NaN()
		out.Payment[i] = math.NaN()
	}
	fleet.BestResponseRange(0, n, prices, fleet.CommTime, eligible, &out)
	for i := 0; i < n; i++ {
		if !eligible[i] {
			if out.Joined[i] || out.Freq[i] != 0 || out.Time[i] != 0 || out.Payment[i] != 0 {
				t.Fatalf("masked node %d not zeroed: joined=%v freq=%v", i, out.Joined[i], out.Freq[i])
			}
			continue
		}
		want := nodes[i].BestResponseWithComm(prices[i], fleet.CommTime[i])
		if out.Joined[i] != want.Participating || out.Freq[i] != want.Freq {
			t.Fatalf("eligible node %d: %v/%v, want %v/%v", i, out.Joined[i], out.Freq[i], want.Participating, want.Freq)
		}
	}
}

// TestFleetColumns pins the per-node derived quantities against the scalar
// methods.
func TestFleetColumns(t *testing.T) {
	nodes, err := NewFleet(rand.New(rand.NewSource(2)), DefaultFleetSpec(12))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	fleet := FromNodes(nodes)
	var wantTotal float64
	for i, nd := range nodes {
		if got := fleet.Workload(i); got != float64(nd.Epochs)*nd.CyclesPerBit*nd.DataBits {
			t.Fatalf("workload %d: %v", i, got)
		}
		if got, want := fleet.PriceForFreq(i, 1.3e9), nd.PriceForFreq(1.3e9); got != want {
			t.Fatalf("priceForFreq %d: %v != %v", i, got, want)
		}
		wantTotal += nd.PriceForFreq(nd.FreqMax)
	}
	if got := fleet.MaxTotalPrice(); got != wantTotal {
		t.Fatalf("MaxTotalPrice %v != %v", got, wantTotal)
	}
}

// TestFleetColumnBytes pins the fleet's resident column bytes per node:
// every column, parameter or derived, is a view onto one 8-byte float64
// word per node of the fleet's slab, 13 in all. It counts slab words, not
// element sizes, because the []int columns' 4-byte elements on 32-bit
// platforms still occupy whole words. A new column changes the per-node
// cost of a 100k-node fleet and must update this pin deliberately.
func TestFleetColumnBytes(t *testing.T) {
	fleet := FromNodes([]*Node{testNode(), testNode()})
	v := reflect.ValueOf(fleet).Elem()
	var words int
	for i := 0; i < v.NumField(); i++ {
		if col := v.Field(i); col.Kind() == reflect.Slice {
			words += col.Cap()
		}
	}
	if perNode := words / fleet.Len(); perNode != 13 {
		t.Fatalf("per-node footprint %d slab words (%d bytes), want 13 (104 bytes)", perNode, 8*perNode)
	}
}

// TestFleetColumnsDisjoint checks the slab layout: every column is n long
// with no spare capacity, so an append copies instead of writing into the
// next column, and a write to one column shows in no other.
func TestFleetColumnsDisjoint(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		f := newEmptyFleet(n)
		floats := [][]float64{f.CyclesPerBit, f.DataBits, f.FreqMin, f.FreqMax, f.Capacitance,
			f.CommTime, f.CommEnergyRate, f.Reserve, f.workload, f.priceCoef, f.energyCoef}
		ints := [][]int{f.Epochs, f.SampleCount}
		for k, col := range floats {
			if col == nil || len(col) != n || cap(col) != n {
				t.Fatalf("n=%d: float column %d nil=%v len %d cap %d", n, k, col == nil, len(col), cap(col))
			}
			for i := range col {
				col[i] = float64(100*k + i + 1)
			}
		}
		for k, col := range ints {
			if col == nil || len(col) != n || cap(col) != n {
				t.Fatalf("n=%d: int column %d nil=%v len %d cap %d", n, k, col == nil, len(col), cap(col))
			}
			for i := range col {
				col[i] = -(100*k + i + 1)
			}
		}
		for k, col := range floats {
			for i, v := range col {
				if want := float64(100*k + i + 1); v != want {
					t.Fatalf("n=%d: float column %d[%d] = %v, want %v", n, k, i, v, want)
				}
			}
		}
		for k, col := range ints {
			for i, v := range col {
				if want := -(100*k + i + 1); v != want {
					t.Fatalf("n=%d: int column %d[%d] = %v, want %v", n, k, i, v, want)
				}
			}
		}
	}
}

// newBatchResponse returns the four round-pipeline columns sized for n
// nodes, with the optional Util and Energy columns left nil.
func newBatchResponse(n int) BatchResponse {
	return BatchResponse{
		Joined:  make([]bool, n),
		Freq:    make([]float64, n),
		Time:    make([]float64, n),
		Payment: make([]float64, n),
	}
}
