package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Churn models fleet membership over an episode: nodes arriving into and
// departing from the recruitment pool mid-training, the participation
// dynamics real edge deployments exhibit on top of the per-round faults
// above. The contract mirrors Schedule: answers are a pure function of
// (round, node) so churn-enabled runs are exactly reproducible.
//
// Semantics, aligned with the round pipeline's stages:
//
//   - A present node is in the Offer-stage recruitment pool at that round
//     and plays its Eqn. (11) best response as usual.
//   - An arrival at round k means the node enters the pool at round k's
//     Offer stage (it was absent before).
//   - A departure at round k means the node is still present at round k's
//     Offer — it can accept the offer — but leaves mid-round: if it joined,
//     it goes silent like a crash and settles under the failure-payment
//     rule. From round k+1 on it is absent until a later arrival.

// ChurnKind classifies a membership event.
type ChurnKind uint8

// The churn event kinds.
const (
	// ChurnArrive brings a node into the recruitment pool at the event's
	// round.
	ChurnArrive ChurnKind = iota
	// ChurnDepart removes a node mid-round at the event's round.
	ChurnDepart
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case ChurnArrive:
		return "arrive"
	case ChurnDepart:
		return "depart"
	default:
		return fmt.Sprintf("churnkind(%d)", uint8(k))
	}
}

// ChurnEvent is one scripted membership change for one node.
type ChurnEvent struct {
	Round int
	Node  int
	Kind  ChurnKind
}

// ChurnSchedule answers the fleet-membership question per (round, node):
// whether the node is in the recruitment pool at round's Offer stage, and
// whether it departs mid-round. Implementations must be deterministic and
// query-order-independent, like fault Schedules.
type ChurnSchedule interface {
	Membership(round, node int) (present, departs bool)
}

// ChurnScript is an explicit churn schedule for exact reproduction: a
// validated event list per node. Nodes with no events are present for the
// whole episode; a node whose first event is an arrival starts absent.
type ChurnScript struct {
	events          map[int][]ChurnEvent
	initiallyAbsent map[int]bool
}

var _ ChurnSchedule = (*ChurnScript)(nil)

// NewChurnScript validates events and builds a script over them. Rules:
// rounds are 1-based, node IDs non-negative, at most one event per
// (round, node), and each node's event sequence must alternate
// depart/arrive consistently with its implied initial state (present
// unless its first event is an arrival).
func NewChurnScript(events []ChurnEvent) (*ChurnScript, error) {
	s := &ChurnScript{
		events:          make(map[int][]ChurnEvent),
		initiallyAbsent: make(map[int]bool),
	}
	for _, ev := range events {
		if ev.Round < 1 {
			return nil, fmt.Errorf("faults: churn event round %d, want >= 1", ev.Round)
		}
		if ev.Node < 0 {
			return nil, fmt.Errorf("faults: churn event node %d, want >= 0", ev.Node)
		}
		if ev.Kind != ChurnArrive && ev.Kind != ChurnDepart {
			return nil, fmt.Errorf("faults: unknown churn kind %d", ev.Kind)
		}
		s.events[ev.Node] = append(s.events[ev.Node], ev)
	}
	for node, evs := range s.events {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Round < evs[j].Round })
		for i := 1; i < len(evs); i++ {
			if evs[i].Round == evs[i-1].Round {
				return nil, fmt.Errorf("faults: node %d has two churn events at round %d", node, evs[i].Round)
			}
		}
		// The implied initial state makes the sequence unambiguous: a node
		// whose story starts with an arrival was outside the fleet before.
		present := evs[0].Kind != ChurnArrive
		s.initiallyAbsent[node] = !present
		for _, ev := range evs {
			switch ev.Kind {
			case ChurnArrive:
				if present {
					return nil, fmt.Errorf("faults: node %d arrives at round %d while already present", node, ev.Round)
				}
				present = true
			case ChurnDepart:
				if !present {
					return nil, fmt.Errorf("faults: node %d departs at round %d while already absent", node, ev.Round)
				}
				present = false
			}
		}
	}
	return s, nil
}

// Membership implements ChurnSchedule by replaying the node's event
// sequence up to round.
func (s *ChurnScript) Membership(round, node int) (present, departs bool) {
	if round < 1 || node < 0 {
		return false, false
	}
	present = !s.initiallyAbsent[node]
	for _, ev := range s.events[node] {
		if ev.Round > round {
			break
		}
		switch ev.Kind {
		case ChurnArrive:
			present = true
		case ChurnDepart:
			if ev.Round == round {
				// Present at this round's Offer, gone mid-round.
				return true, true
			}
			present = false
		}
	}
	return present, false
}

// Validate reports an error if the script names a node outside [0, nodes):
// such an event can never match a Membership query, so a typo'd node ID
// would otherwise be silently inert.
func (s *ChurnScript) Validate(nodes int) error {
	for node := range s.events {
		if node >= nodes {
			return fmt.Errorf("faults: churn script names node %d, but the fleet has %d nodes (IDs 0..%d)",
				node, nodes, nodes-1)
		}
	}
	return nil
}

// Events returns the script's validated events in (node, round) order —
// the canonical form FormatChurnScript renders.
func (s *ChurnScript) Events() []ChurnEvent {
	nodes := make([]int, 0, len(s.events))
	for node := range s.events {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	var out []ChurnEvent
	for _, node := range nodes {
		out = append(out, s.events[node]...)
	}
	return out
}

// ParseChurnScript parses the CLI/text form of a churn script: events
// separated by commas, semicolons, or whitespace, each "+NODE@ROUND" (an
// arrival) or "-NODE@ROUND" (a departure). Example: "-2@5,+2@9,+7@3" —
// node 2 departs mid-round 5 and rejoins at round 9; node 7 (absent at
// episode start) arrives at round 3. An empty spec yields an empty script
// (a fixed fleet).
func ParseChurnScript(spec string) (*ChurnScript, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool {
		return r == ',' || r == ';' || r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	events := make([]ChurnEvent, 0, len(fields))
	for _, tok := range fields {
		var kind ChurnKind
		switch {
		case strings.HasPrefix(tok, "+"):
			kind = ChurnArrive
		case strings.HasPrefix(tok, "-"):
			kind = ChurnDepart
		default:
			return nil, fmt.Errorf("faults: churn event %q must start with + (arrive) or - (depart)", tok)
		}
		body := tok[1:]
		at := strings.IndexByte(body, '@')
		if at < 0 {
			return nil, fmt.Errorf("faults: churn event %q missing @ROUND", tok)
		}
		node, err := strconv.Atoi(body[:at])
		if err != nil {
			return nil, fmt.Errorf("faults: churn event %q: bad node: %v", tok, err)
		}
		round, err := strconv.Atoi(body[at+1:])
		if err != nil {
			return nil, fmt.Errorf("faults: churn event %q: bad round: %v", tok, err)
		}
		events = append(events, ChurnEvent{Round: round, Node: node, Kind: kind})
	}
	return NewChurnScript(events)
}

// FormatChurnScript renders a script back into the ParseChurnScript text
// form (round-trip stable for validated scripts).
func FormatChurnScript(s *ChurnScript) string {
	evs := s.Events()
	parts := make([]string, len(evs))
	for i, ev := range evs {
		sign := "+"
		if ev.Kind == ChurnDepart {
			sign = "-"
		}
		parts[i] = fmt.Sprintf("%s%d@%d", sign, ev.Node, ev.Round)
	}
	return strings.Join(parts, ",")
}

// ChurnRates parameterizes a sampled churn schedule as a per-node two-state
// Markov chain over rounds.
type ChurnRates struct {
	// Depart is the per-round hazard that a present node departs mid-round.
	Depart float64
	// Arrive is the per-round probability that an absent node (re)enters
	// the pool at that round's Offer stage.
	Arrive float64
	// InitialAbsent is the probability a node starts the episode outside
	// the pool (it then needs an Arrive draw to ever participate).
	InitialAbsent float64
}

// Validate reports whether the rates are usable.
func (r ChurnRates) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"depart", r.Depart}, {"arrive", r.Arrive}, {"initial-absent", r.InitialAbsent},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("faults: churn %s rate %v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// ChurnSampler is a seed-deterministic sampled ChurnSchedule. Each
// (round, node) cell's uniform draw derives from (seed, round, node) — the
// same discipline as the fault Sampler — so membership never depends on
// query order. A query walks the node's chain from round 1, making the
// sampler stateless and safe to share across parallel environments.
type ChurnSampler struct {
	rates ChurnRates
	seed  int64
}

var _ ChurnSchedule = (*ChurnSampler)(nil)

// NewChurnSampler validates rates and builds a sampler over them.
func NewChurnSampler(rates ChurnRates, seed int64) (*ChurnSampler, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	return &ChurnSampler{rates: rates, seed: seed}, nil
}

// churnSalt decorrelates churn cells from fault-Sampler cells at the same
// seed, so the two schedules never reuse a uniform draw.
const churnSalt = 0xda3e39cb94b95bdb

// unit returns the cell's uniform draw in [0,1). Round 0 carries the
// initial-presence draw.
func (s *ChurnSampler) unit(round, node int) float64 {
	h := SplitMix64(uint64(s.seed) ^ churnSalt)
	h = SplitMix64(h ^ uint64(round)*0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(node)*0xbf58476d1ce4e5b9)
	return float64(h>>11) / (1 << 53)
}

// Membership implements ChurnSchedule: the node's presence chain is
// replayed from round 1 with one uniform draw per round, so each round's
// marginal depart/arrive probability matches the configured rate exactly.
func (s *ChurnSampler) Membership(round, node int) (present, departs bool) {
	if round < 1 || node < 0 {
		return false, false
	}
	present = s.unit(0, node) >= s.rates.InitialAbsent
	for r := 1; r <= round; r++ {
		u := s.unit(r, node)
		if present {
			if u < s.rates.Depart {
				if r == round {
					return true, true
				}
				present = false
			}
		} else if u < s.rates.Arrive {
			present = true
		}
	}
	return present, false
}
