package fl

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"chiron/internal/dataset"
	"chiron/internal/nn"
)

func mlpFactory(in, hidden, classes int) ModelFactory {
	return func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(rng, in, hidden, classes)
	}
}

func testData(t *testing.T, samples int, seed int64) *dataset.Dataset {
	t.Helper()
	spec := dataset.SynthMNIST(samples)
	d, err := dataset.Generate(rand.New(rand.NewSource(seed)), spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{Epochs: 0, LearningRate: 0.1},
		{Epochs: 1, LearningRate: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Epochs != 5 {
		t.Fatalf("epochs %d, want σ=5", cfg.Epochs)
	}
	if batchSize != 10 {
		t.Fatalf("batch size %d, want 10", batchSize)
	}
}

func TestNewClientValidation(t *testing.T) {
	d := testData(t, 50, 1)
	rng := rand.New(rand.NewSource(2))
	if _, err := NewClient(0, nil, mlpFactory(d.Dim(), 8, 10), DefaultConfig(), rng); err == nil {
		t.Fatal("accepted nil data")
	}
	if _, err := NewClient(0, d, mlpFactory(d.Dim(), 8, 10), Config{}, rng); err == nil {
		t.Fatal("accepted invalid config")
	}
	c, err := NewClient(3, d, mlpFactory(d.Dim(), 8, 10), DefaultConfig(), rng)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if c.id != 3 || c.NumSamples() != 50 {
		t.Fatalf("client id %d samples %d", c.id, c.NumSamples())
	}
}

func TestTrainRoundImprovesLocalLoss(t *testing.T) {
	d := testData(t, 300, 3)
	rng := rand.New(rand.NewSource(4))
	factory := mlpFactory(d.Dim(), 16, 10)
	client, err := NewClient(0, d, factory, DefaultConfig(), rng)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ref, err := factory(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	global := ref.FlattenParams()
	params1, loss1, err := client.TrainRound(global)
	if err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
	if len(params1) != len(global) {
		t.Fatalf("param count %d, want %d", len(params1), len(global))
	}
	_, loss2, err := client.TrainRound(params1)
	if err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
	if loss2 >= loss1 {
		t.Fatalf("training loss did not improve: %v -> %v", loss1, loss2)
	}
}

func TestServerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewServer(nil, mlpFactory(4, 4, 2), rng); err == nil {
		t.Fatal("accepted nil test set")
	}
}

func TestAggregateWeightedMean(t *testing.T) {
	d := testData(t, 40, 7)
	rng := rand.New(rand.NewSource(8))
	srv, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rng)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	dim := len(srv.GlobalInto(nil))
	a := make([]float64, dim)
	b := make([]float64, dim)
	for i := range a {
		a[i] = 1
		b[i] = 4
	}
	// Weights 1:2 → mean (1·1 + 4·2)/3 = 3.
	err = srv.Aggregate([]Update{
		{Params: a, Samples: 100},
		{Params: b, Samples: 200},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	for i, v := range srv.GlobalInto(nil) {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("global[%d] = %v, want 3", i, v)
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	d := testData(t, 40, 9)
	rng := rand.New(rand.NewSource(10))
	srv, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rng)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Aggregate(nil); err == nil {
		t.Fatal("accepted empty update set")
	}
	if err := srv.Aggregate([]Update{{Params: []float64{1}, Samples: 1}}); err == nil {
		t.Fatal("accepted wrong-size update")
	}
	good := srv.GlobalInto(nil)
	if err := srv.Aggregate([]Update{{Params: good, Samples: 0}}); err == nil {
		t.Fatal("accepted zero-sample update")
	}
}

func TestGlobalReturnsCopy(t *testing.T) {
	d := testData(t, 40, 11)
	srv, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	g := srv.GlobalInto(nil)
	g[0] = 1e9
	if srv.GlobalInto(nil)[0] == 1e9 {
		t.Fatal("GlobalInto returns a live reference")
	}
	// A buffer of the right length is reused, not reallocated.
	if again := srv.GlobalInto(g); &again[0] != &g[0] || again[0] == 1e9 {
		t.Fatal("GlobalInto did not refill the caller's buffer")
	}
}

func TestAggregateRejectsNonFinite(t *testing.T) {
	d := testData(t, 40, 31)
	srv, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	before := srv.GlobalInto(nil)
	for name, poison := range map[string]float64{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
	} {
		bad := srv.GlobalInto(nil)
		bad[3] = poison
		err := srv.Aggregate([]Update{
			{Client: 0, Params: srv.GlobalInto(nil), Samples: 10},
			{Client: 7, Params: bad, Samples: 10},
		})
		if err == nil {
			t.Fatalf("%s update accepted", name)
		}
		var corrupt *CorruptUpdateError
		if !errors.As(err, &corrupt) {
			t.Fatalf("%s: error %T, want *CorruptUpdateError", name, err)
		}
		if corrupt.Client != 7 {
			t.Fatalf("%s: blamed client %d, want 7", name, corrupt.Client)
		}
		if !strings.Contains(err.Error(), "client 7") {
			t.Fatalf("%s: message does not name the client: %v", name, err)
		}
		if !slices.Equal(srv.GlobalInto(nil), before) {
			t.Fatalf("%s: rejected aggregation mutated the global model", name)
		}
	}
}

// TestFederatedRoundImprovesAccuracy runs three full FedAvg rounds over
// three clients and checks test accuracy improves substantially over the
// untrained model.
func TestFederatedRoundImprovesAccuracy(t *testing.T) {
	full := testData(t, 900, 13)
	rng := rand.New(rand.NewSource(14))
	train, test, err := full.Split(rng, 0.25)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	parts, err := dataset.IID{}.Partition(rng, train, 3)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	factory := mlpFactory(full.Dim(), 24, 10)
	srv, err := NewServer(test, factory, rng)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	before, err := srv.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	clients := make([]*Client, 3)
	for i, idx := range parts {
		local, err := train.Subset(idx)
		if err != nil {
			t.Fatalf("Subset: %v", err)
		}
		clients[i], err = NewClient(i, local, factory, DefaultConfig(), rand.New(rand.NewSource(int64(20+i))))
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
	}
	for round := 0; round < 3; round++ {
		global := srv.GlobalInto(nil)
		var updates []Update
		for _, c := range clients {
			params, _, err := c.TrainRound(global)
			if err != nil {
				t.Fatalf("TrainRound: %v", err)
			}
			updates = append(updates, Update{Params: params, Samples: c.NumSamples()})
		}
		if err := srv.Aggregate(updates); err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
	}
	after, err := srv.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if after < before+0.3 {
		t.Fatalf("FedAvg failed to learn: %v -> %v", before, after)
	}
}

// Property (FedAvg algebra, Eqn. 4): aggregating identical updates is the
// identity, and aggregation is invariant to scaling all sample counts.
func TestAggregateAlgebraProperty(t *testing.T) {
	d := testData(t, 40, 15)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		srv, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rng)
		if err != nil {
			return false
		}
		dim := len(srv.GlobalInto(nil))
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if err := srv.Aggregate([]Update{{Params: v, Samples: 7}, {Params: v, Samples: 13}}); err != nil {
			return false
		}
		got := srv.GlobalInto(nil)
		for i := range got {
			if math.Abs(got[i]-v[i]) > 1e-12 {
				return false
			}
		}
		// Scale-invariance of weights.
		a, b := make([]float64, dim), make([]float64, dim)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		srv1, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		srv2, err := NewServer(d, mlpFactory(d.Dim(), 4, 10), rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if err := srv1.Aggregate([]Update{{Params: a, Samples: 3}, {Params: b, Samples: 5}}); err != nil {
			return false
		}
		if err := srv2.Aggregate([]Update{{Params: a, Samples: 30}, {Params: b, Samples: 50}}); err != nil {
			return false
		}
		g1, g2 := srv1.GlobalInto(nil), srv2.GlobalInto(nil)
		for i := range g1 {
			if math.Abs(g1[i]-g2[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
