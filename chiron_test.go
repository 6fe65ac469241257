package chiron_test

import (
	"math"
	"strings"
	"testing"

	"chiron"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := chiron.NewSystem(chiron.SystemConfig{Budget: 100}); err == nil {
		t.Fatal("accepted zero nodes")
	}
	if _, err := chiron.NewSystem(chiron.SystemConfig{Nodes: 3}); err == nil {
		t.Fatal("accepted zero budget")
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := chiron.NewSystem(chiron.SystemConfig{Nodes: 3, Budget: 100})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Env().NumNodes() != 3 {
		t.Fatalf("nodes %d", sys.Env().NumNodes())
	}
	if sys.Env().Config().Lambda != 2000 {
		t.Fatalf("lambda %v, want paper default 2000", sys.Env().Config().Lambda)
	}
}

func TestSystemTrainAndEvaluate(t *testing.T) {
	sys, err := chiron.NewSystem(chiron.SystemConfig{Nodes: 3, Budget: 80, Seed: 7})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var seen int
	if _, err := sys.Train(3, func(chiron.EpisodeResult) { seen++ }); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if seen != 3 {
		t.Fatalf("callbacks %d", seen)
	}
	res, err := sys.Evaluate(2)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Rounds <= 0 || res.BudgetSpent > 80+1e-9 {
		t.Fatalf("evaluation %+v", res)
	}
}

func TestSystemBaselinesShareFleet(t *testing.T) {
	sys, err := chiron.NewSystem(chiron.SystemConfig{Nodes: 4, Budget: 100, Seed: 9})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	drl, err := sys.NewBaselineDRL()
	if err != nil {
		t.Fatalf("NewBaselineDRL: %v", err)
	}
	greedy, err := sys.NewBaselineGreedy()
	if err != nil {
		t.Fatalf("NewBaselineGreedy: %v", err)
	}
	// Same node population, independent environments.
	for i, n := range sys.Env().Nodes() {
		if drl.Env().Nodes()[i].DataBits != n.DataBits {
			t.Fatal("DRL baseline fleet differs")
		}
		if greedy.Env().Nodes()[i].CommTime != n.CommTime {
			t.Fatal("Greedy baseline fleet differs")
		}
	}
	if drl.Env() == sys.Env() || greedy.Env() == sys.Env() {
		t.Fatal("baseline shares the agent's environment instance")
	}
	if _, err := drl.RunEpisode(false); err != nil {
		t.Fatalf("drl episode: %v", err)
	}
	if _, err := greedy.RunEpisode(false); err != nil {
		t.Fatalf("greedy episode: %v", err)
	}
}

func TestSystemCustomNodes(t *testing.T) {
	base := chiron.Node{
		CyclesPerBit: 20, Capacitance: 2e-28, CommEnergyRate: 0.002,
		Epochs: 5, FreqMin: 1.5e8, FreqMax: 1.5e9, DataBits: 4e7,
		CommTime: 12, SampleCount: 500,
	}
	nodes := make([]*chiron.Node, 3)
	for i := range nodes {
		n := base
		n.ID = i
		nodes[i] = &n
	}
	sys, err := chiron.NewSystem(chiron.SystemConfig{CustomNodes: nodes, Budget: 60, Seed: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Env().NumNodes() != 3 {
		t.Fatalf("nodes %d", sys.Env().NumNodes())
	}
	if _, err := sys.Agent().RunEpisode(false); err != nil {
		t.Fatalf("episode: %v", err)
	}
}

func TestSystemRejectsInvalidCustomNode(t *testing.T) {
	good := chiron.Node{
		CyclesPerBit: 20, Capacitance: 2e-28, CommEnergyRate: 0.002,
		Epochs: 5, FreqMin: 1.5e8, FreqMax: 1.5e9, DataBits: 4e7,
		CommTime: 12, SampleCount: 500,
	}
	bad := good
	bad.ID = 7 // the error names the entry's index, not its ID
	bad.Capacitance = 0
	_, err := chiron.NewSystem(chiron.SystemConfig{CustomNodes: []*chiron.Node{&good, &bad}, Budget: 60})
	if err == nil || !strings.Contains(err.Error(), "node 1: capacitance") {
		t.Fatalf("NewSystem error = %v, want it to name node 1's capacitance", err)
	}
	_, err = chiron.NewSystem(chiron.SystemConfig{CustomNodes: []*chiron.Node{&good, &good, nil}, Budget: 60})
	if err == nil || !strings.Contains(err.Error(), "CustomNodes[2]") {
		t.Fatalf("NewSystem error = %v, want it to name CustomNodes[2]", err)
	}
}

func TestSystemRealTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("real training skipped in -short mode")
	}
	sys, err := chiron.NewSystem(chiron.SystemConfig{
		Nodes: 3, Budget: 40, Seed: 3, RealTraining: true,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	res, err := sys.Agent().RunEpisode(false)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.Rounds <= 0 {
		t.Fatal("real-training episode played no rounds")
	}
	// Real FedAvg training must move accuracy above random guessing.
	if res.FinalAccuracy < 0.2 {
		t.Fatalf("measured accuracy %v after %d real rounds", res.FinalAccuracy, res.Rounds)
	}
}

func TestDatasetNames(t *testing.T) {
	if chiron.DatasetMNIST.String() != "mnist" ||
		chiron.DatasetFashionMNIST.String() != "fashion-mnist" ||
		chiron.DatasetCIFAR10.String() != "cifar-10" {
		t.Fatal("dataset names wrong")
	}
	if !strings.Contains(chiron.Dataset(0).String(), "unknown") {
		t.Fatal("zero dataset should stringify as unknown")
	}
}

func TestArtifactsExposed(t *testing.T) {
	arts := chiron.Artifacts()
	if len(arts) != 7 {
		t.Fatalf("artifacts %d, want 7", len(arts))
	}
	for _, a := range arts {
		if chiron.DescribeArtifact(a) == "" {
			t.Fatalf("artifact %s undescribed", a)
		}
	}
}

func TestNodeEconomicsThroughPublicAPI(t *testing.T) {
	sys, err := chiron.NewSystem(chiron.SystemConfig{Nodes: 1, Budget: 50, Seed: 4})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	n := sys.Env().Nodes()[0]
	price := n.PriceForFreq(n.FreqMax)
	resp := n.BestResponse(price)
	if !resp.Participating {
		t.Fatal("node declined its own full-speed price")
	}
	if math.Abs(resp.Freq-n.FreqMax) > 1 {
		t.Fatalf("best response %v, want FreqMax %v", resp.Freq, n.FreqMax)
	}
}
