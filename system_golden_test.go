package chiron_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron"
	"chiron/internal/mechanism"
)

var updateSystemGolden = flag.Bool("update", false, "regenerate testdata/system.golden")

// customFleet is the skewed five-node fleet of examples/customdevice.
func customFleet() []*chiron.Node {
	base := chiron.Node{CyclesPerBit: 20, Capacitance: 2e-28, CommEnergyRate: 0.01, Epochs: 5, FreqMin: 1e8}
	mk := func(id int, dataBits, freqMax, commTime, reserve float64, samples int) *chiron.Node {
		n := base
		n.ID, n.DataBits, n.FreqMax, n.CommTime, n.Reserve, n.SampleCount = id, dataBits, freqMax, commTime, reserve, samples
		return &n
	}
	return []*chiron.Node{
		mk(0, 4.0e7, 2.0e9, 10, 0.02, 800),
		mk(1, 4.0e7, 1.9e9, 11, 0.02, 700),
		mk(2, 3.5e7, 1.2e9, 16, 0.04, 500),
		mk(3, 3.6e7, 1.1e9, 18, 0.04, 500),
		mk(4, 5.5e7, 1.0e9, 20, 0.05, 1200),
	}
}

// systemGoldenCase is one NewSystem configuration of the root golden,
// driven through the agent or one of the system's baselines.
type systemGoldenCase struct {
	name          string
	cfg           func(t *testing.T) chiron.SystemConfig
	baseline      string // "", "drl" or "greedy"
	train, evalEp int
}

func systemGoldenCases() []systemGoldenCase {
	plain := func(cfg chiron.SystemConfig) func(*testing.T) chiron.SystemConfig {
		return func(*testing.T) chiron.SystemConfig { return cfg }
	}
	mnist5 := chiron.SystemConfig{Nodes: 5, Dataset: chiron.DatasetMNIST, Budget: 300, Seed: 7}
	fashion := mnist5
	fashion.Dataset = chiron.DatasetFashionMNIST
	cifar := mnist5
	cifar.Dataset = chiron.DatasetCIFAR10
	large := mnist5
	large.Nodes = 60
	real := chiron.SystemConfig{Nodes: 3, Dataset: chiron.DatasetMNIST, Budget: 15, Seed: 7, RealTraining: true}
	return []systemGoldenCase{
		{name: "mnist-n5", cfg: plain(mnist5), train: 3, evalEp: 2},
		{name: "fashion-n5", cfg: plain(fashion), train: 3, evalEp: 2},
		{name: "cifar-n5-drl", cfg: plain(cifar), baseline: "drl", train: 3, evalEp: 2},
		{name: "mnist-n5-greedy", cfg: plain(mnist5), baseline: "greedy", train: 3, evalEp: 2},
		{name: "mnist-n60", cfg: plain(large), train: 3, evalEp: 2},
		{name: "custom-nodes", cfg: plain(chiron.SystemConfig{
			CustomNodes: customFleet(), Dataset: chiron.DatasetFashionMNIST, Budget: 250, Seed: 11,
		}), train: 3, evalEp: 2},
		{name: "churn-script", cfg: func(t *testing.T) chiron.SystemConfig {
			script, err := chiron.ParseChurnScript("-3@5,+3@9")
			if err != nil {
				t.Fatal(err)
			}
			cfg := mnist5
			cfg.Churn = script
			return cfg
		}, train: 3, evalEp: 2},
		{name: "real-n3", cfg: plain(real), train: 1, evalEp: 1},
	}
}

// systemGoldenLine trains and evaluates one case and renders an exact-bits
// digest of every result (%v prints the shortest float that round-trips,
// so equal text means equal bits) plus a rounded summary for reading.
func systemGoldenLine(t *testing.T, c systemGoldenCase) string {
	t.Helper()
	sys, err := chiron.NewSystem(c.cfg(t))
	if err != nil {
		t.Fatalf("%s: NewSystem: %v", c.name, err)
	}
	var m chiron.Mechanism = sys.Agent()
	switch c.baseline {
	case "drl":
		m, err = sys.NewBaselineDRL()
	case "greedy":
		m, err = sys.NewBaselineGreedy()
	}
	if err != nil {
		t.Fatalf("%s: baseline: %v", c.name, err)
	}
	trainer, ok := m.(interface {
		Train(int, func(chiron.EpisodeResult)) ([]chiron.EpisodeResult, error)
	})
	if !ok {
		t.Fatalf("%s: %s is not trainable", c.name, m.Name())
	}
	train, err := trainer.Train(c.train, nil)
	if err != nil {
		t.Fatalf("%s: train: %v", c.name, err)
	}
	eval, err := mechanism.Evaluate(m, c.evalEp)
	if err != nil {
		t.Fatalf("%s: evaluate: %v", c.name, err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v", train, eval)
	rounds := make([]string, len(train))
	for i, r := range train {
		rounds[i] = fmt.Sprint(r.Rounds)
	}
	last := train[len(train)-1]
	return fmt.Sprintf("%s %s digest=%016x train rounds=%s acc=%.4f util=%.1f eval rounds=%d acc=%.4f util=%.1f",
		c.name, m.Name(), h.Sum64(), strings.Join(rounds, ","), last.FinalAccuracy, last.ServerUtility,
		eval.Rounds, eval.FinalAccuracy, eval.ServerUtility)
}

// TestSystemGolden pins NewSystem's numbers: the fleet draw, the accuracy
// curve (including the Table I curve at N ≥ 50 and real FedAvg training),
// custom fleets, churn and the baselines' cloned environments, by the
// exact bits of Train and Evaluate. Regenerate with -update only when a
// behaviour change is intended.
func TestSystemGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range systemGoldenCases() {
		sb.WriteString(systemGoldenLine(t, c))
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "system.golden")
	if *updateSystemGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("system results differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
