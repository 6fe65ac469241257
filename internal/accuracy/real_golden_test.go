package accuracy

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/dataset"
	"chiron/internal/fl"
	"chiron/internal/nn"
)

var updateRealGolden = flag.Bool("update", false, "regenerate testdata/real-trainer.golden")

// hashFloats folds the exact bit patterns of vals into h, so one ULP of
// drift anywhere in the hashed stream changes the digest.
func hashFloats(h interface{ Write([]byte) (int, error) }, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// realGoldenCases pin the real-training path (RealTrainer over fl's
// clients and FedAvg server) on each partitioner abl-noniid sweeps, one
// synthetic dataset each.
var realGoldenCases = []struct {
	name  string
	spec  dataset.SynthSpec
	parts dataset.Partitioner
}{
	{"mnist-iid", dataset.SynthMNIST(300), dataset.IID{}},
	{"fashion-dirichlet", dataset.SynthFashion(300), dataset.Dirichlet{Alpha: 0.5}},
	{"cifar-shards", dataset.SynthCIFAR(300), dataset.Shards{ShardsPerNode: 2}},
}

// realGoldenLine drives one case through two episodes: full rounds, a
// round with a participant subset and an empty round, then a Reset into a
// second episode with a full and a subset round. Every accuracy and the
// global vector at the end of each episode are hashed bit for bit.
func realGoldenLine(t *testing.T, name string, spec dataset.SynthSpec, parts dataset.Partitioner) string {
	t.Helper()
	rt, err := NewRealTrainer(RealTrainerConfig{
		Spec:        spec,
		Partitioner: parts,
		Factory: func(rng *rand.Rand) (*nn.Network, error) {
			return nn.NewClassifierMLP(rng, spec.Dim(), 8, spec.Classes)
		},
		Train:    fl.DefaultConfig(),
		NumNodes: 4,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("NewRealTrainer: %v", err)
	}
	all := []int{0, 1, 2, 3}
	accs := []float64{rt.Accuracy()}
	advance := func(participants []int) {
		acc, err := rt.Advance(participants)
		if err != nil {
			t.Fatalf("Advance(%v): %v", participants, err)
		}
		accs = append(accs, acc)
	}
	h := fnv.New64a()
	advance(all)
	advance(all)
	advance([]int{3, 1})
	advance(nil)
	first := rt.server.GlobalInto(nil)
	hashFloats(h, first...)
	fresh, err := rt.Reset()
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	accs = append(accs, fresh)
	advance(all)
	advance([]int{2})
	final := rt.server.GlobalInto(nil)
	hashFloats(h, final...)
	hashFloats(h, accs...)
	shown := make([]string, len(accs))
	for i, a := range accs {
		shown[i] = fmt.Sprintf("%.3f", a)
	}
	return fmt.Sprintf("%s: accuracies %s; digest %016x over %d accuracies and 2x%d parameters\n",
		name, strings.Join(shown, " "), h.Sum64(), len(accs), len(final))
}

// TestRealTrainerGolden pins the real-training path bit for bit against
// testdata/real-trainer.golden. Regenerate it after an intended numeric
// change with
//
//	go test ./internal/accuracy -run TestRealTrainerGolden -update
func TestRealTrainerGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range realGoldenCases {
		got.WriteString(realGoldenLine(t, tc.name, tc.spec, tc.parts))
	}
	path := filepath.Join("testdata", "real-trainer.golden")
	if *updateRealGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("real trainer drifted from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.String())
	}
}

// TestRealTrainerDigestDetectsOneULP checks that the golden's digest sees
// a one-ULP change in a single hashed value.
func TestRealTrainerDigestDetectsOneULP(t *testing.T) {
	base := []float64{0.5, 0.1234567890123456, 0.9}
	nudged := append([]float64(nil), base...)
	nudged[1] = math.Nextafter(nudged[1], 2)
	h1, h2 := fnv.New64a(), fnv.New64a()
	hashFloats(h1, base...)
	hashFloats(h2, nudged...)
	if h1.Sum64() == h2.Sum64() {
		t.Fatalf("digest %016x unchanged by a one-ULP change", h1.Sum64())
	}
}
