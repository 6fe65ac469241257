package faults

import (
	"math"
	"testing"
)

func TestChurnScriptMembership(t *testing.T) {
	// Node 0: departs mid-round 3, rejoins at 7.
	// Node 1: absent from the start, arrives at 5.
	// Node 2: no events — present throughout.
	s, err := NewChurnScript([]ChurnEvent{
		{Round: 3, Node: 0, Kind: ChurnDepart},
		{Round: 7, Node: 0, Kind: ChurnArrive},
		{Round: 5, Node: 1, Kind: ChurnArrive},
	})
	if err != nil {
		t.Fatalf("NewChurnScript: %v", err)
	}
	cases := []struct {
		round, node      int
		present, departs bool
	}{
		{1, 0, true, false},
		{2, 0, true, false},
		{3, 0, true, true}, // present at Offer, gone mid-round
		{4, 0, false, false},
		{6, 0, false, false},
		{7, 0, true, false}, // rejoined
		{9, 0, true, false},
		{1, 1, false, false},
		{4, 1, false, false},
		{5, 1, true, false},
		{8, 1, true, false},
		{1, 2, true, false},
		{100, 2, true, false},
		{0, 0, false, false},  // rounds are 1-based
		{5, -1, false, false}, // negative node is never present
		{5, 99, true, false},  // unknown node defaults to present
	}
	for _, c := range cases {
		p, d := s.Membership(c.round, c.node)
		if p != c.present || d != c.departs {
			t.Errorf("Membership(%d, %d) = (%v, %v), want (%v, %v)",
				c.round, c.node, p, d, c.present, c.departs)
		}
	}
}

func TestChurnScriptValidation(t *testing.T) {
	cases := []struct {
		name   string
		events []ChurnEvent
		ok     bool
	}{
		{"empty", nil, true},
		{"depart then arrive", []ChurnEvent{
			{Round: 2, Node: 0, Kind: ChurnDepart}, {Round: 5, Node: 0, Kind: ChurnArrive}}, true},
		{"arrive first implies absent start", []ChurnEvent{
			{Round: 4, Node: 1, Kind: ChurnArrive}}, true},
		{"round zero", []ChurnEvent{{Round: 0, Node: 0, Kind: ChurnDepart}}, false},
		{"negative round", []ChurnEvent{{Round: -3, Node: 0, Kind: ChurnDepart}}, false},
		{"negative node", []ChurnEvent{{Round: 1, Node: -1, Kind: ChurnDepart}}, false},
		{"bad kind", []ChurnEvent{{Round: 1, Node: 0, Kind: ChurnKind(9)}}, false},
		{"duplicate cell", []ChurnEvent{
			{Round: 2, Node: 0, Kind: ChurnDepart}, {Round: 2, Node: 0, Kind: ChurnArrive}}, false},
		{"double depart", []ChurnEvent{
			{Round: 2, Node: 0, Kind: ChurnDepart}, {Round: 5, Node: 0, Kind: ChurnDepart}}, false},
		{"double arrive", []ChurnEvent{
			{Round: 2, Node: 0, Kind: ChurnArrive}, {Round: 5, Node: 0, Kind: ChurnArrive}}, false},
	}
	for _, c := range cases {
		_, err := NewChurnScript(c.events)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewChurnScript = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestChurnScriptValidateFleetSize(t *testing.T) {
	s, err := NewChurnScript([]ChurnEvent{
		{Round: 2, Node: 0, Kind: ChurnDepart},
		{Round: 3, Node: 4, Kind: ChurnDepart},
	})
	if err != nil {
		t.Fatalf("NewChurnScript: %v", err)
	}
	if err := s.Validate(5); err != nil {
		t.Errorf("Validate(5) = %v, want nil (node 4 is in range)", err)
	}
	if err := s.Validate(4); err == nil {
		t.Error("Validate(4) = nil, want error (node 4 can never match)")
	}
}

func TestParseChurnScript(t *testing.T) {
	s, err := ParseChurnScript("-2@5, +2@9; +7@3")
	if err != nil {
		t.Fatalf("ParseChurnScript: %v", err)
	}
	if p, d := s.Membership(5, 2); !p || !d {
		t.Errorf("node 2 at round 5 = (%v, %v), want departing", p, d)
	}
	if p, _ := s.Membership(9, 2); !p {
		t.Error("node 2 should rejoin at round 9")
	}
	if p, _ := s.Membership(2, 7); p {
		t.Error("node 7 should be absent before its arrival")
	}
	if p, _ := s.Membership(3, 7); !p {
		t.Error("node 7 should be present from round 3")
	}

	// Canonical round-trip: format → parse → format is stable.
	text := FormatChurnScript(s)
	if text != "-2@5,+2@9,+7@3" {
		t.Errorf("FormatChurnScript = %q", text)
	}
	s2, err := ParseChurnScript(text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if got := FormatChurnScript(s2); got != text {
		t.Errorf("round-trip format = %q, want %q", got, text)
	}

	if _, err := ParseChurnScript(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
	for _, bad := range []string{"2@5", "+x@5", "+2@y", "+2", "@5", "+2@5,+2@5"} {
		if _, err := ParseChurnScript(bad); err == nil {
			t.Errorf("ParseChurnScript(%q) accepted", bad)
		}
	}
}

func TestChurnRatesValidate(t *testing.T) {
	if err := (ChurnRates{Depart: 0.1, Arrive: 0.3, InitialAbsent: 0.2}).Validate(); err != nil {
		t.Fatalf("valid rates rejected: %v", err)
	}
	for _, bad := range []ChurnRates{
		{Depart: -0.1}, {Arrive: 1.5}, {InitialAbsent: math.NaN()},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// TestChurnSamplerDeterminism: same seed ⇒ identical membership, different
// seed ⇒ (with these rates) some difference, and query order never matters
// because each query replays the chain from round 1.
func TestChurnSamplerDeterminism(t *testing.T) {
	rates := ChurnRates{Depart: 0.15, Arrive: 0.25, InitialAbsent: 0.3}
	a, err := NewChurnSampler(rates, 42)
	if err != nil {
		t.Fatalf("NewChurnSampler: %v", err)
	}
	b, _ := NewChurnSampler(rates, 42)
	c, _ := NewChurnSampler(rates, 43)

	type cell struct{ p, d bool }
	grid := func(s *ChurnSampler, reverse bool) map[[2]int]cell {
		m := make(map[[2]int]cell)
		for r := 1; r <= 40; r++ {
			for n := 0; n < 6; n++ {
				rr, nn := r, n
				if reverse {
					rr, nn = 41-r, 5-n
				}
				p, d := s.Membership(rr, nn)
				m[[2]int{rr, nn}] = cell{p, d}
			}
		}
		return m
	}
	ga, gb := grid(a, false), grid(b, true)
	if len(ga) != len(gb) {
		t.Fatalf("grid sizes differ")
	}
	same := true
	for k, v := range ga {
		if gb[k] != v {
			t.Fatalf("same seed, different membership at %v: %v vs %v", k, v, gb[k])
		}
	}
	for k, v := range grid(c, false) {
		if ga[k] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical membership grids")
	}
}

// TestChurnSamplerChainConsistency: the sampled process is a legal chain —
// the departs flag only ever fires on a present node, and an absent node
// never shows a departs flag (Markov legality; a depart at r followed by a
// fresh arrival at r+1 is legal rejoining, not an inconsistency).
func TestChurnSamplerChainConsistency(t *testing.T) {
	s, err := NewChurnSampler(ChurnRates{Depart: 0.3, Arrive: 0.4, InitialAbsent: 0.5}, 7)
	if err != nil {
		t.Fatalf("NewChurnSampler: %v", err)
	}
	for n := 0; n < 8; n++ {
		for r := 1; r <= 60; r++ {
			if p, d := s.Membership(r, n); d && !p {
				t.Fatalf("node %d round %d: departs while absent", n, r)
			}
		}
	}
	// Zero rates leave the chain frozen at its initial state forever.
	frozen, _ := NewChurnSampler(ChurnRates{InitialAbsent: 0.5}, 7)
	for n := 0; n < 8; n++ {
		first, _ := frozen.Membership(1, n)
		for r := 2; r <= 30; r++ {
			p, d := frozen.Membership(r, n)
			if p != first || d {
				t.Fatalf("node %d round %d: zero-rate chain moved (%v, %v)", n, r, p, d)
			}
		}
	}
}

// TestChurnSamplerRates sanity-checks the marginal transition frequencies
// against the configured rates over a large sample. The post-round state
// s_r is present exactly when the node was present at r's Offer and did
// not depart: s_r = p_r ∧ ¬d_r.
func TestChurnSamplerRates(t *testing.T) {
	rates := ChurnRates{Depart: 0.2, Arrive: 0.35, InitialAbsent: 0.4}
	s, err := NewChurnSampler(rates, 11)
	if err != nil {
		t.Fatalf("NewChurnSampler: %v", err)
	}
	var departOpp, departs, arriveOpp, arrives, absentStart int
	const nodes, rounds = 400, 50
	for n := 0; n < nodes; n++ {
		p, d := s.Membership(1, n)
		prev := p && !d
		for r := 2; r <= rounds; r++ {
			p, d = s.Membership(r, n)
			if prev {
				departOpp++
				if d {
					departs++
				}
			} else {
				arriveOpp++
				if p {
					arrives++
				}
			}
			prev = p && !d
		}
	}
	// With both transition rates zero the chain is frozen, so round 1
	// exposes the initial-presence draw directly.
	frozen, _ := NewChurnSampler(ChurnRates{InitialAbsent: rates.InitialAbsent}, 11)
	for n := 0; n < nodes; n++ {
		if p, _ := frozen.Membership(1, n); !p {
			absentStart++
		}
	}
	checks := []struct {
		name     string
		got      float64
		want     float64
		tolerate float64
	}{
		{"depart", float64(departs) / float64(departOpp), rates.Depart, 0.05},
		{"arrive", float64(arrives) / float64(arriveOpp), rates.Arrive, 0.05},
		{"initial absent", float64(absentStart) / nodes, rates.InitialAbsent, 0.07},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tolerate {
			t.Errorf("%s frequency %v, want %v ± %v", c.name, c.got, c.want, c.tolerate)
		}
	}
}
