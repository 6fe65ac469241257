package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testNode returns a node with paper-like constants.
func testNode() *Node {
	return &Node{
		ID:             0,
		CyclesPerBit:   20,
		DataBits:       4e7,
		FreqMin:        1e8,
		FreqMax:        1.5e9,
		Capacitance:    2e-28,
		CommTime:       15,
		CommEnergyRate: 0.01,
		Reserve:        0.02,
		Epochs:         5,
		SampleCount:    600,
	}
}

func TestNodeValidate(t *testing.T) {
	n := testNode()
	if err := n.Validate(); err != nil {
		t.Fatalf("valid node rejected: %v", err)
	}
	mutations := []func(*Node){
		func(n *Node) { n.CyclesPerBit = 0 },
		func(n *Node) { n.DataBits = -1 },
		func(n *Node) { n.FreqMin = 0 },
		func(n *Node) { n.FreqMax = n.FreqMin / 2 },
		func(n *Node) { n.Capacitance = 0 },
		func(n *Node) { n.CommTime = -1 },
		func(n *Node) { n.Reserve = -0.1 },
		func(n *Node) { n.Epochs = 0 },
		func(n *Node) { n.SampleCount = 0 },
		func(n *Node) { n.CyclesPerBit = math.NaN() },
		func(n *Node) { n.DataBits = math.NaN() },
		func(n *Node) { n.FreqMin = math.NaN() },
		func(n *Node) { n.FreqMax = math.NaN() },
		func(n *Node) { n.Capacitance = math.NaN() },
		func(n *Node) { n.CommTime = math.NaN() },
		func(n *Node) { n.CommEnergyRate = math.NaN() },
		func(n *Node) { n.Reserve = math.NaN() },
		func(n *Node) { n.CyclesPerBit = math.Inf(1) },
		func(n *Node) { n.DataBits = math.Inf(1) },
		func(n *Node) { n.FreqMax = math.Inf(1) },
		func(n *Node) { n.FreqMin, n.FreqMax = math.Inf(1), math.Inf(1) },
		func(n *Node) { n.Capacitance = math.Inf(1) },
		func(n *Node) { n.CommTime = math.Inf(1) },
		func(n *Node) { n.CommEnergyRate = math.Inf(1) },
		func(n *Node) { n.Reserve = math.Inf(1) },
	}
	for i, mutate := range mutations {
		bad := testNode()
		mutate(bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestComputeTimeEqn6(t *testing.T) {
	n := testNode()
	// T^cmp = σ·c·d/ζ = 5·20·4e7/1e9 = 4 s.
	got := n.ComputeTime(1e9)
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("ComputeTime = %v, want 4", got)
	}
	if !math.IsInf(n.ComputeTime(0), 1) {
		t.Fatal("ComputeTime(0) should be +Inf")
	}
	if got := n.RoundTime(1e9); math.Abs(got-19) > 1e-12 {
		t.Fatalf("RoundTime = %v, want 19", got)
	}
}

func TestEnergyModel(t *testing.T) {
	n := testNode()
	freq := 1e9
	// E^cmp = σ·α·c·d·ζ² = 5·2e-28·20·4e7·1e18 = 0.8 J.
	wantCmp := 0.8
	if got := n.ComputeEnergy(freq); math.Abs(got-wantCmp) > 1e-9 {
		t.Fatalf("ComputeEnergy = %v, want %v", got, wantCmp)
	}
	wantTotal := wantCmp + 0.01*15
	if got := n.Energy(freq); math.Abs(got-wantTotal) > 1e-9 {
		t.Fatalf("Energy = %v, want %v", got, wantTotal)
	}
}

func TestBestResponseInteriorEqn11(t *testing.T) {
	n := testNode()
	// Choose a price whose interior optimum lies strictly inside the
	// frequency box, then verify ζ* = p/(2σαcd).
	target := 1e9
	price := n.PriceForFreq(target)
	resp := n.BestResponse(price)
	if !resp.Participating {
		t.Fatal("node declined a profitable price")
	}
	if math.Abs(resp.Freq-target) > 1 {
		t.Fatalf("ζ* = %v, want %v", resp.Freq, target)
	}
	// Eqn. 12: optimal compute time 2ασ²c²d²/p.
	wantCmp := 2 * n.Capacitance * n.workload() * n.workload() / price
	if math.Abs(resp.Time-(wantCmp+n.CommTime)) > 1e-9 {
		t.Fatalf("response time = %v, want %v", resp.Time, wantCmp+n.CommTime)
	}
}

func TestBestResponseClipsToBox(t *testing.T) {
	n := testNode()
	// A huge price should clip to FreqMax.
	resp := n.BestResponse(n.PriceForFreq(n.FreqMax) * 100)
	if !resp.Participating || resp.Freq != n.FreqMax {
		t.Fatalf("high price: freq %v, want FreqMax %v", resp.Freq, n.FreqMax)
	}
	// A price below the participation threshold yields a decline.
	resp = n.BestResponse(1e-15)
	if resp.Participating {
		t.Fatal("node participated at a dust price")
	}
	if resp.Freq != 0 || resp.Payment != 0 || resp.Time != 0 {
		t.Fatalf("declined response not zeroed: %+v", resp)
	}
}

func TestBestResponseZeroAndNegativePrice(t *testing.T) {
	n := testNode()
	if n.BestResponse(0).Participating || n.BestResponse(-1).Participating {
		t.Fatal("node participated at non-positive price")
	}
}

// Property (the optimal-strategy analysis of Sec. IV-B): the best-response
// frequency maximizes utility over a dense grid of feasible frequencies.
func TestBestResponseIsMaximizer(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes, err := NewFleet(r, DefaultFleetSpec(1))
		if err != nil {
			return false
		}
		n := nodes[0]
		price := n.PriceForFreq(n.FreqMin + r.Float64()*(n.FreqMax-n.FreqMin)*1.5)
		resp := n.BestResponse(price)
		const grid = 400
		bestU := math.Inf(-1)
		for i := 0; i <= grid; i++ {
			freq := n.FreqMin + (n.FreqMax-n.FreqMin)*float64(i)/grid
			if u := n.Utility(price, freq); u > bestU {
				bestU = u
			}
		}
		if !resp.Participating {
			// If it declined, no feasible frequency may clear the reserve.
			return bestU < n.Reserve+1e-9
		}
		// The analytic optimum must match the grid search up to grid error.
		return resp.Utility >= bestU-1e-6*(1+math.Abs(bestU))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: utility at the clipped best response is nondecreasing in price.
func TestBestResponseUtilityMonotoneInPrice(t *testing.T) {
	n := testNode()
	pMax := n.PriceForFreq(n.FreqMax) * 2
	prev := math.Inf(-1)
	for i := 1; i <= 100; i++ {
		price := pMax * float64(i) / 100
		resp := n.BestResponse(price)
		u := resp.Utility
		if !resp.Participating {
			u = 0
		}
		if u < prev-1e-9 {
			t.Fatalf("utility decreased with price at step %d: %v -> %v", i, prev, u)
		}
		prev = u
	}
}

func TestPriceForFreqInvertsEqn11(t *testing.T) {
	n := testNode()
	for _, freq := range []float64{2e8, 7e8, 1.2e9} {
		price := n.PriceForFreq(freq)
		interior := price / (2 * n.Capacitance * n.workload())
		if math.Abs(interior-freq) > 1e-3 {
			t.Fatalf("PriceForFreq not inverse of Eqn 11: %v vs %v", interior, freq)
		}
	}
}

func TestMinParticipationPrice(t *testing.T) {
	n := testNode()
	priceCap := n.PriceForFreq(n.FreqMax)
	mp := n.MinParticipationPrice(priceCap)
	if math.IsInf(mp, 1) {
		t.Fatal("no participation price found below cap")
	}
	if !n.BestResponse(mp).Participating {
		t.Fatal("node declines at its min participation price")
	}
	if below := mp * 0.99; n.BestResponse(below).Participating {
		t.Fatal("node participates below its min participation price")
	}
	// An impossible reserve yields +Inf.
	greedy := testNode()
	greedy.Reserve = 1e12
	if !math.IsInf(greedy.MinParticipationPrice(priceCap), 1) {
		t.Fatal("impossible reserve should yield +Inf")
	}
}

func TestFleetSpecValidate(t *testing.T) {
	if err := DefaultFleetSpec(5).Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	bad := DefaultFleetSpec(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-node spec accepted")
	}
	bad = DefaultFleetSpec(5)
	bad.CommTimeMax = bad.CommTimeMin - 1
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted comm range accepted")
	}
	bad = DefaultFleetSpec(5)
	bad.FreqMaxHigh = bad.FreqMaxLow / 2
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted freq range accepted")
	}
	// Every float bound must be finite: an upper bound at +Inf (or a
	// whole range there) passes the ordering checks but draws +Inf nodes.
	nonFinite := map[string]func(*FleetSpec, float64){
		"cycles/bit":  func(s *FleetSpec, v float64) { s.CyclesPerBit = v },
		"data bits":   func(s *FleetSpec, v float64) { s.DataBitsMax = v },
		"data range":  func(s *FleetSpec, v float64) { s.DataBitsMin, s.DataBitsMax = v, v },
		"freq max":    func(s *FleetSpec, v float64) { s.FreqMaxHigh = v },
		"freq range":  func(s *FleetSpec, v float64) { s.FreqMin, s.FreqMaxLow, s.FreqMaxHigh = v, v, v },
		"comm time":   func(s *FleetSpec, v float64) { s.CommTimeMax = v },
		"comm range":  func(s *FleetSpec, v float64) { s.CommTimeMin, s.CommTimeMax = v, v },
		"capacitance": func(s *FleetSpec, v float64) { s.Capacitance = v },
		"comm energy": func(s *FleetSpec, v float64) { s.CommEnergyRate = v },
		"reserve max": func(s *FleetSpec, v float64) { s.ReserveMax = v },
	}
	for name, set := range nonFinite {
		for _, v := range []float64{math.Inf(1), math.NaN()} {
			bad := DefaultFleetSpec(5)
			set(&bad, v)
			if err := bad.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

func TestDefaultFleetSpecMatchesPaperConstants(t *testing.T) {
	spec := DefaultFleetSpec(5)
	if spec.CyclesPerBit != 20 {
		t.Fatalf("c_i = %v, want 20 cycles/bit", spec.CyclesPerBit)
	}
	if spec.FreqMaxLow != 1e9 || spec.FreqMaxHigh != 2e9 {
		t.Fatalf("ζmax range [%v,%v], want [1,2] GHz", spec.FreqMaxLow, spec.FreqMaxHigh)
	}
	if spec.CommTimeMin != 10 || spec.CommTimeMax != 20 {
		t.Fatalf("comm range [%v,%v], want [10,20] s", spec.CommTimeMin, spec.CommTimeMax)
	}
	if spec.Capacitance != 2e-28 {
		t.Fatalf("α = %v, want 2e-28", spec.Capacitance)
	}
	if spec.Epochs != 5 {
		t.Fatalf("σ = %d, want 5", spec.Epochs)
	}
}

func TestNewFleetRespectsSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spec := DefaultFleetSpec(50)
	nodes, err := NewFleet(rng, spec)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if len(nodes) != 50 {
		t.Fatalf("fleet size %d", len(nodes))
	}
	for _, n := range nodes {
		if n.FreqMax < spec.FreqMaxLow || n.FreqMax > spec.FreqMaxHigh {
			t.Fatalf("node %d FreqMax %v outside [%v,%v]", n.ID, n.FreqMax, spec.FreqMaxLow, spec.FreqMaxHigh)
		}
		if n.CommTime < spec.CommTimeMin || n.CommTime > spec.CommTimeMax {
			t.Fatalf("node %d CommTime %v outside range", n.ID, n.CommTime)
		}
		if n.DataBits < spec.DataBitsMin || n.DataBits > spec.DataBitsMax {
			t.Fatalf("node %d DataBits %v outside range", n.ID, n.DataBits)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("generated node invalid: %v", err)
		}
	}
}

func TestNewFleetDeterministic(t *testing.T) {
	a, err := NewFleet(rand.New(rand.NewSource(5)), DefaultFleetSpec(10))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	b, err := NewFleet(rand.New(rand.NewSource(5)), DefaultFleetSpec(10))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	for i := range a {
		if a[i].DataBits != b[i].DataBits || a[i].FreqMax != b[i].FreqMax || a[i].CommTime != b[i].CommTime {
			t.Fatalf("fleet generation not deterministic at node %d", i)
		}
	}
}
