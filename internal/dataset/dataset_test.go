package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chiron/internal/mat"
)

func mustGenerate(t *testing.T, spec SynthSpec, seed int64) *Dataset {
	t.Helper()
	d, err := Generate(rand.New(rand.NewSource(seed)), spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func TestGenerateShapes(t *testing.T) {
	spec := SynthMNIST(200)
	d := mustGenerate(t, spec, 1)
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Dim() != spec.Dim() {
		t.Fatalf("Dim = %d, want %d", d.Dim(), spec.Dim())
	}
	for i, y := range d.Y {
		if y < 0 || y >= spec.Classes {
			t.Fatalf("label %d = %d out of range", i, y)
		}
	}
}

func TestGenerateCoversAllClasses(t *testing.T) {
	d := mustGenerate(t, SynthMNIST(2000), 2)
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	for cls, count := range counts {
		if count == 0 {
			t.Fatalf("class %d has no samples", cls)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []SynthSpec{
		{Channels: 0, Side: 12, Classes: 10, Samples: 10},
		{Channels: 1, Side: 2, Classes: 10, Samples: 10},
		{Channels: 1, Side: 12, Classes: 1, Samples: 10},
		{Channels: 1, Side: 12, Classes: 10, Samples: 0},
		{Channels: 1, Side: 12, Classes: 10, Samples: 10, Noise: -1},
		{Channels: 1, Side: 12, Classes: 10, Samples: 10, Overlap: 1.5},
		{Channels: 1, Side: 12, Classes: 10, Samples: 10, Jitter: 6},
		{Channels: 1, Side: 12, Classes: 10, Samples: 10, LabelNoise: 2},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %d validated unexpectedly", i)
		}
	}
	if err := SynthCIFAR(100).Validate(); err != nil {
		t.Fatalf("SynthCIFAR invalid: %v", err)
	}
}

func TestGenerateDeterministicGivenSeed(t *testing.T) {
	a := mustGenerate(t, SynthFashion(50), 42)
	b := mustGenerate(t, SynthFashion(50), 42)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
	for i, v := range a.X.Data() {
		if b.X.Data()[i] != v {
			t.Fatal("features differ across identical seeds")
		}
	}
}

func TestSubset(t *testing.T) {
	d := mustGenerate(t, SynthMNIST(20), 3)
	sub, err := d.Subset([]int{0, 5, 19})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if sub.Len() != 3 || sub.Y[1] != d.Y[5] {
		t.Fatalf("subset mismatch")
	}
	// Copies, not views.
	sub.X.Set(0, 0, 1234)
	if d.X.At(0, 0) == 1234 {
		t.Fatal("Subset aliases parent features")
	}
	if _, err := d.Subset([]int{99}); err == nil {
		t.Fatal("Subset accepted out-of-range index")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d := mustGenerate(t, SynthMNIST(60), 4)
	// Fingerprint each sample's features keyed by a strong hash of the row.
	key := func(row []float64) float64 {
		var h float64
		for i, v := range row {
			h += v * float64(i+1)
		}
		return h
	}
	before := make(map[int][]float64)
	for i := 0; i < d.Len(); i++ {
		before[d.Y[i]] = append(before[d.Y[i]], key(d.X.Row(i)))
	}
	d.Shuffle(rand.New(rand.NewSource(5)))
	after := make(map[int][]float64)
	for i := 0; i < d.Len(); i++ {
		after[d.Y[i]] = append(after[d.Y[i]], key(d.X.Row(i)))
	}
	for cls, keys := range before {
		if len(after[cls]) != len(keys) {
			t.Fatalf("class %d count changed after shuffle", cls)
		}
		sum := func(v []float64) float64 {
			var s float64
			for _, x := range v {
				s += x
			}
			return s
		}
		if math.Abs(sum(keys)-sum(after[cls])) > 1e-6 {
			t.Fatalf("class %d feature fingerprints changed after shuffle", cls)
		}
	}
}

func TestSplit(t *testing.T) {
	d := mustGenerate(t, SynthMNIST(100), 6)
	train, test, err := d.Split(rand.New(rand.NewSource(7)), 0.2)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if train.Len()+test.Len() != 100 {
		t.Fatalf("split sizes %d+%d", train.Len(), test.Len())
	}
	if test.Len() != 20 {
		t.Fatalf("test size %d, want 20", test.Len())
	}
	if _, _, err := d.Split(rand.New(rand.NewSource(8)), 1.0); err == nil {
		t.Fatal("Split accepted fraction 1.0")
	}
}

func TestBatches(t *testing.T) {
	d := mustGenerate(t, SynthMNIST(25), 9)
	var sizes []int
	err := d.Batches(10, func(x *mat.Matrix, y []int) error {
		if x.Rows() != len(y) {
			t.Fatalf("batch rows %d labels %d", x.Rows(), len(y))
		}
		sizes = append(sizes, len(y))
		return nil
	})
	if err != nil {
		t.Fatalf("Batches: %v", err)
	}
	if len(sizes) != 3 || sizes[0] != 10 || sizes[2] != 5 {
		t.Fatalf("batch sizes %v", sizes)
	}
	if err := d.Batches(0, nil); err == nil {
		t.Fatal("Batches accepted size 0")
	}
}

func TestDifficultyOrdering(t *testing.T) {
	// A nearest-prototype classifier should find MNIST-like data easier
	// than CIFAR-like data, mirroring the real datasets' ordering.
	errRate := func(spec SynthSpec) float64 {
		d := mustGenerate(t, spec, 10)
		protos := prototypes(spec)
		var wrong int
		for i := 0; i < d.Len(); i++ {
			best, bestDist := -1, math.Inf(1)
			for c, p := range protos {
				var dist float64
				row := d.X.Row(i)
				for j := range p {
					diff := row[j] - p[j]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = c, dist
				}
			}
			if best != d.Y[i] {
				wrong++
			}
		}
		return float64(wrong) / float64(d.Len())
	}
	mnist := errRate(SynthMNIST(1000))
	cifar := errRate(SynthCIFAR(1000))
	if mnist >= cifar {
		t.Fatalf("difficulty inverted: mnist err %v >= cifar err %v", mnist, cifar)
	}
}

// Property: every generated sample has finite feature values.
func TestGenerateFiniteFeatures(t *testing.T) {
	f := func(seed int64) bool {
		spec := SynthFashion(30)
		d, err := Generate(rand.New(rand.NewSource(seed)), spec)
		if err != nil {
			return false
		}
		for _, v := range d.X.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
