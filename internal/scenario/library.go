package scenario

import "sort"

// library holds the named scenarios that double as the cross-scenario
// conformance corpus: each exercises a different slice of the environment
// model (device mixes, price regimes, bandwidth phases, churn, faults,
// non-IID data), and each is cheap enough — except fig4-grid, which the
// conformance suite runs scaled down — for the golden-digest suite to run
// them all under -race in CI.
var library = []Spec{
	{
		Name:         "paper-baseline",
		Description:  "the paper's clean Sec. VI-A setting: IID MNIST, fixed fleet, no failures",
		Dataset:      "mnist",
		Seed:         7,
		Classes:      []DeviceClass{{Profile: "paper", Count: 4}},
		Budgets:      []float64{300},
		Mechanisms:   []string{"uniform"},
		EvalEpisodes: 3,
	},
	{
		Name:         "budget-pacing",
		Description:  "budget sweep on Fashion-MNIST: how round counts and accuracy pace with eta",
		Dataset:      "fashion",
		Seed:         11,
		Classes:      []DeviceClass{{Profile: "paper", Count: 4}},
		Budgets:      []float64{150, 300, 600},
		Mechanisms:   []string{"uniform", "equal-time"},
		EvalEpisodes: 3,
	},
	{
		Name:        "flash-crowd",
		Description: "two phones visit the fleet for rounds 3-8 only; recruitment must adapt",
		Dataset:     "mnist",
		Seed:        13,
		Classes: []DeviceClass{
			{Profile: "paper", Count: 3},
			{Profile: "phone", Count: 2},
		},
		Budgets:    []float64{400},
		Mechanisms: []string{"greedy"},
		// Nodes 3 and 4 arrive at round 3 and depart mid-round 8.
		Churn:         &ChurnSpec{Script: "+3@3,-3@8,+4@3,-4@8"},
		TrainEpisodes: 6,
		EvalEpisodes:  3,
	},
	{
		Name:        "adversarial-price",
		Description: "expensive reserves on CIFAR: IoT swarm plus one server with doubled reserve utility",
		Dataset:     "cifar",
		Seed:        17,
		Classes: []DeviceClass{
			{Profile: "iot", Count: 3, ReserveScale: 2},
			{Profile: "server", Count: 1, ReserveScale: 2},
		},
		Budgets:      []float64{250},
		Mechanisms:   []string{"uniform"},
		EvalEpisodes: 3,
	},
	{
		Name:         "flaky-network",
		Description:  "80% availability with 20% bandwidth jitter: the stochastic-draw regime",
		Dataset:      "mnist",
		Seed:         19,
		Classes:      []DeviceClass{{Profile: "paper", Count: 4}},
		Budgets:      []float64{300},
		Mechanisms:   []string{"uniform"},
		Availability: 0.8,
		CommJitter:   0.2,
		EvalEpisodes: 3,
	},
	{
		Name:        "congested-uplink",
		Description: "piecewise bandwidth regime: uplinks halve at round 5, recover past nominal at round 12",
		Dataset:     "fashion",
		Seed:        23,
		Classes:     []DeviceClass{{Profile: "paper", Count: 4}},
		Budgets:     []float64{350},
		Mechanisms:  []string{"equal-time"},
		Bandwidth: []BandwidthPhase{
			{FromRound: 5, Factor: 2.0},
			{FromRound: 12, Factor: 0.7},
		},
		EvalEpisodes: 3,
	},
	{
		Name:        "faulty-fleet",
		Description: "sampled crash/straggle/drop/corrupt faults under a 60s deadline with half failure payment",
		Dataset:     "mnist",
		Seed:        29,
		Classes:     []DeviceClass{{Profile: "paper", Count: 5}},
		Budgets:     []float64{300},
		Mechanisms:  []string{"uniform"},
		Faults: &FaultSpec{
			Crash:    0.05,
			Straggle: 0.10,
			Drop:     0.05,
			Corrupt:  0.02,
		},
		RoundDeadline:  60,
		FailurePayment: 0.5,
		EvalEpisodes:   3,
	},
	{
		Name:        "churny-fleet",
		Description: "Markov churn (10% depart, 30% re-arrive) over a flaky network",
		Dataset:     "mnist",
		Seed:        37,
		Classes:     []DeviceClass{{Profile: "paper", Count: 5}},
		Budgets:     []float64{300},
		Mechanisms:  []string{"uniform"},
		Churn: &ChurnSpec{Rates: &ChurnRatesSpec{
			Depart: 0.10,
			Arrive: 0.30,
		}},
		Availability: 0.9,
		CommJitter:   0.1,
		EvalEpisodes: 3,
	},
	{
		Name:        "heterogeneous-mix",
		Description: "four device tiers on non-IID shards (severity 0.5): the Table I fleet in miniature",
		Dataset:     "mnist-large",
		Seed:        31,
		Classes: []DeviceClass{
			{Profile: "phone", Count: 2},
			{Profile: "laptop", Count: 2},
			{Profile: "iot", Count: 1},
			{Profile: "server", Count: 1},
		},
		Budgets:       []float64{300},
		Mechanisms:    []string{"uniform", "greedy"},
		NonIID:        0.5,
		TrainEpisodes: 4,
		EvalEpisodes:  3,
	},
	{
		Name:          "fig4-grid",
		Description:   "the paper's Fig. 4 grid as a scenario: MNIST budget sweep, Chiron vs DRL-based vs Greedy (run scaled for CI)",
		Dataset:       "mnist",
		Seed:          7,
		Classes:       []DeviceClass{{Profile: "paper", Count: 5}},
		Budgets:       []float64{100, 200, 300, 400, 500},
		Mechanisms:    []string{"chiron", "drl", "greedy"},
		TrainEpisodes: 500,
		EvalEpisodes:  5,
	},
}

// Names returns the library scenario names, sorted.
func Names() []string {
	names := make([]string, len(library))
	for i := range library {
		names[i] = library[i].Name
	}
	sort.Strings(names)
	return names
}

// Lookup returns a fresh copy of the named library scenario. Copies are
// shallow but callers only ever override scalar fields (Scale), so the
// shared slices stay untouched.
func Lookup(name string) (*Spec, bool) {
	for i := range library {
		if library[i].Name == name {
			s := library[i]
			return &s, true
		}
	}
	return nil, false
}

// Describe returns the name and description of every library scenario in
// sorted order, for `chiron list`.
func Describe() [][2]string {
	out := make([][2]string, 0, len(library))
	for _, name := range Names() {
		s, _ := Lookup(name)
		out = append(out, [2]string{s.Name, s.Description})
	}
	return out
}
