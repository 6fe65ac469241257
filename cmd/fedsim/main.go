// Command fedsim runs plain federated averaging (no incentive mechanism)
// over the repository's pure-Go training substrate: synthetic datasets,
// IID or non-IID partitioning, per-round client sampling, and optional
// server-side momentum (FedAvgM). It is the standalone harness for the
// learning half of the reproduction.
//
// Usage:
//
//	fedsim [-dataset mnist|fashion|cifar] [-nodes N] [-rounds R]
//	       [-partition iid|dirichlet|shards] [-alpha A] [-frac C]
//	       [-server-momentum B] [-samples S] [-hidden H] [-seed S]
//	       [-crash-rate P] [-corrupt-rate P] [-drop-rate P]
//	       [-max-retries R] [-min-quorum Q] [-max-delta-norm D]
//	       [-depart-rate P] [-arrive-rate P] [-churn SCRIPT]
//	       [-fault-seed S]
//
// The fault flags drive the failure-hardened round pipeline: clients crash
// before training (crash-rate), upload damaged parameter vectors
// (corrupt-rate, screened out by sanitization), or lose uploads on an
// unreliable channel retried up to max-retries times (drop-rate). Rounds
// where fewer than min-quorum sanitized updates survive leave the global
// model untouched instead of aborting the run.
//
// The churn flags add fleet membership on top: clients leave and rejoin
// the pool either by seed-deterministic Markov rates (-depart-rate /
// -arrive-rate) or by an explicit scripted plan (-churn "-3@5,+3@9" departs
// client 3 at round 5 and returns it at round 9). A client outside the
// pool is skipped even when sampled; a client departing mid-round vanishes
// before its upload lands, exactly like a crash. All churn flags default
// off, so existing seeds reproduce their golden digests bit-for-bit.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"chiron/internal/accuracy"
	"chiron/internal/dataset"
	"chiron/internal/faults"
	"chiron/internal/fl"
	"chiron/internal/nn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fedsim: %v\n", err)
		os.Exit(1)
	}
}

// hashFloats folds the exact bit patterns of vals into h. Feeding bits
// rather than formatted text makes the run digest sensitive to a single
// ULP of drift anywhere in the hashed stream — printed accuracies round to
// three decimals, so they alone could never catch it.
func hashFloats(h hash.Hash64, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// aggregator is the common surface of the plain and momentum servers.
type aggregator interface {
	Global() []float64
	Aggregate(updates []fl.Update) error
	AggregateRobust(updates []fl.Update, cfg fl.RobustConfig) ([]fl.Rejection, error)
	Evaluate() (float64, error)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	datasetName := fs.String("dataset", "mnist", "synthetic task: mnist, fashion, or cifar")
	nodes := fs.Int("nodes", 10, "number of clients")
	rounds := fs.Int("rounds", 30, "federated rounds")
	partition := fs.String("partition", "iid", "data split: iid, dirichlet, or shards")
	alpha := fs.Float64("alpha", 0.5, "Dirichlet concentration (partition=dirichlet)")
	frac := fs.Float64("frac", 1.0, "fraction of clients sampled per round (FedAvg's C)")
	serverMomentum := fs.Float64("server-momentum", 0, "FedAvgM server momentum β (0 = plain FedAvg)")
	samples := fs.Int("samples", 3000, "total training samples to generate")
	hidden := fs.Int("hidden", 32, "MLP hidden width")
	seed := fs.Int64("seed", 1, "random seed")
	logEvery := fs.Int("log-every", 5, "print accuracy every this many rounds")
	crashRate := fs.Float64("crash-rate", 0, "per-round probability a selected client crashes before training")
	corruptRate := fs.Float64("corrupt-rate", 0, "per-round probability a client uploads a corrupted parameter vector")
	dropRate := fs.Float64("drop-rate", 0, "per-attempt probability a client upload is lost in transit")
	maxRetries := fs.Int("max-retries", 2, "re-upload attempts before a dropped client is abandoned for the round")
	minQuorum := fs.Int("min-quorum", 1, "minimum sanitized updates required to advance the global model")
	maxDeltaNorm := fs.Float64("max-delta-norm", 1e6, "reject updates farther than this L2 distance from the global model (0 disables)")
	departRate := fs.Float64("depart-rate", 0, "per-round probability a pool member departs the fleet")
	arriveRate := fs.Float64("arrive-rate", 0, "per-round probability a departed client rejoins the fleet")
	churnSpec := fs.String("churn", "", "scripted churn plan, e.g. \"-3@5,+3@9\" (overrides the churn rates)")
	faultSeed := fs.Int64("fault-seed", 0, "seed of the fault schedule (0 = derive from -seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds <= 0 || *nodes <= 0 {
		return fmt.Errorf("rounds and nodes must be positive")
	}
	if *frac <= 0 || *frac > 1 {
		return fmt.Errorf("frac %v outside (0,1]", *frac)
	}

	spec, err := parseSpec(*datasetName, *samples)
	if err != nil {
		return err
	}
	part, err := parsePartitioner(*partition, *alpha)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	full, err := dataset.Generate(rng, spec)
	if err != nil {
		return err
	}
	train, test, err := full.Split(rng, 0.2)
	if err != nil {
		return err
	}
	parts, err := part.Partition(rng, train, *nodes)
	if err != nil {
		return err
	}

	factory := func(r *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(r, spec.Dim(), *hidden, spec.Classes)
	}
	baseServer, err := fl.NewServer(test, factory, rng)
	if err != nil {
		return err
	}
	var srv aggregator = baseServer
	if *serverMomentum > 0 {
		srv, err = fl.NewMomentumServer(baseServer, *serverMomentum)
		if err != nil {
			return err
		}
	}

	clients := make([]*fl.Client, *nodes)
	for i, idx := range parts {
		local, err := train.Subset(idx)
		if err != nil {
			return err
		}
		clients[i], err = fl.NewClient(i, local, factory, fl.DefaultConfig(), rand.New(rand.NewSource(*seed+int64(i)+1)))
		if err != nil {
			return err
		}
	}

	perRound := int(float64(*nodes) * *frac)
	if perRound < 1 {
		perRound = 1
	}

	// Fault harness: crashes and corruptions come from a seed-deterministic
	// sampled schedule, dropped uploads from the retry-bounded uplink.
	fseed := *faultSeed
	if fseed == 0 {
		fseed = *seed + 9001
	}
	var sched faults.Schedule
	if *crashRate > 0 || *corruptRate > 0 {
		sampler, err := faults.NewSampler(faults.Rates{Crash: *crashRate, Corrupt: *corruptRate}, fseed)
		if err != nil {
			return err
		}
		sched = sampler
	}
	uplink, err := fl.NewUplink(*dropRate, *maxRetries, rand.New(rand.NewSource(fseed+1)))
	if err != nil {
		return err
	}
	corruptRng := rand.New(rand.NewSource(fseed + 2))
	var churn faults.ChurnSchedule
	switch {
	case *churnSpec != "":
		script, err := faults.ParseChurnScript(*churnSpec)
		if err != nil {
			return err
		}
		if err := script.Validate(*nodes); err != nil {
			return err
		}
		churn = script
	case *departRate != 0 || *arriveRate != 0:
		sampler, err := faults.NewChurnSampler(faults.ChurnRates{Depart: *departRate, Arrive: *arriveRate}, fseed+3)
		if err != nil {
			return err
		}
		churn = sampler
	}
	robust := fl.RobustConfig{MinQuorum: *minQuorum, MaxDeltaNorm: *maxDeltaNorm}
	if err := robust.Validate(); err != nil {
		return err
	}

	acc, err := srv.Evaluate()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fedsim: %s, %d clients (%s split), %d sampled/round, σ=%d epochs, server momentum %.2f\n",
		spec.Name, *nodes, *partition, perRound, fl.DefaultConfig().Epochs, *serverMomentum)
	if sched != nil || *dropRate > 0 {
		fmt.Fprintf(w, "faults: crash %.0f%%, corrupt %.0f%%, drop %.0f%% (≤%d retries), quorum %d\n",
			100**crashRate, 100**corruptRate, 100**dropRate, *maxRetries, *minQuorum)
	}
	if churn != nil {
		if *churnSpec != "" {
			fmt.Fprintf(w, "churn: scripted %q\n", *churnSpec)
		} else {
			fmt.Fprintf(w, "churn: depart %.0f%%, arrive %.0f%% per round\n", 100**departRate, 100**arriveRate)
		}
	}
	fmt.Fprintf(w, "round   0: accuracy %.3f (untrained)\n", acc)

	// The digest pins the run bit-exactly: every evaluated accuracy and the
	// final global parameter vector enter as raw float bits, so golden
	// traces catch numeric drift the rounded log lines would hide.
	digest := fnv.New64a()
	hashFloats(digest, acc)

	var crashed, dropped, rejected, skipped, absent, departed int
	var global []float64
	updates := make([]fl.Update, 0, perRound)
	for round := 1; round <= *rounds; round++ {
		selected, err := fl.SampleClients(rng, *nodes, perRound)
		if err != nil {
			return err
		}
		// Both server flavors share the base server's parameter vector, so
		// the recycled download buffer works for either.
		global = baseServer.GlobalInto(global)
		updates = updates[:0]
		for _, id := range selected {
			if churn != nil {
				present, departs := churn.Membership(round, id)
				if !present {
					// Outside the fleet: the sample is wasted, nothing runs.
					absent++
					continue
				}
				if departs {
					// Leaves mid-round: selected and trained, but gone
					// before the upload lands — the server gets nothing.
					departed++
					continue
				}
			}
			var fault faults.Fault
			if sched != nil {
				fault, _ = sched.At(round, id)
			}
			if fault.Kind == faults.Crash {
				crashed++
				continue
			}
			params, _, err := clients[id].TrainRound(global)
			if err != nil {
				return err
			}
			if fault.Kind == faults.Corrupt {
				faults.CorruptParams(params, fault.Mode, corruptRng)
			}
			if _, ok := uplink.Send(); !ok {
				dropped++
				continue
			}
			updates = append(updates, fl.Update{Client: id, Params: params, Samples: clients[id].NumSamples()})
		}
		rej, err := srv.AggregateRobust(updates, robust)
		rejected += len(rej)
		if errors.Is(err, fl.ErrQuorum) {
			// Not enough survivors to trust the average: hold the global
			// model for a round instead of aborting the run.
			skipped++
			continue
		} else if err != nil {
			return err
		}
		if acc, err = srv.Evaluate(); err != nil {
			return err
		}
		hashFloats(digest, acc)
		if *logEvery > 0 && (round%*logEvery == 0 || round == *rounds) {
			fmt.Fprintf(w, "round %3d: accuracy %.3f\n", round, acc)
		}
	}
	fmt.Fprintf(w, "final accuracy after %d rounds: %.3f\n", *rounds, acc)
	if crashed+dropped+rejected+skipped+absent+departed > 0 {
		fmt.Fprintf(w, "failure summary: %d crashed, %d uploads dropped after retries, %d updates rejected, %d rounds skipped (quorum)",
			crashed, dropped, rejected, skipped)
		// Churn counters print only when a churn schedule is active, so the
		// legacy summary (and the golden traces pinning it) is unchanged.
		if churn != nil {
			fmt.Fprintf(w, ", %d churn-absent, %d departed mid-round", absent, departed)
		}
		fmt.Fprintln(w)
	}
	final := baseServer.Global()
	hashFloats(digest, final...)
	fmt.Fprintf(w, "digest %016x over %d accuracies and %d parameters (final accuracy %s)\n",
		digest.Sum64(), *rounds-skipped+1, len(final),
		strconv.FormatFloat(acc, 'g', -1, 64))
	return nil
}

// parseSpec resolves a -dataset name through accuracy.ParsePreset, the
// vocabulary scenario specs share, to its calibrated real-training task.
// The Table I preset names no task here.
func parseSpec(name string, samples int) (dataset.SynthSpec, error) {
	// An unknown name gives the zero Preset, which has no task either.
	p, _ := accuracy.ParsePreset(name)
	spec, _, err := accuracy.Task(p, samples)
	if err != nil {
		return dataset.SynthSpec{}, fmt.Errorf("unknown dataset %q (want mnist, fashion, or cifar)", name)
	}
	return spec, nil
}

func parsePartitioner(name string, alpha float64) (dataset.Partitioner, error) {
	switch strings.ToLower(name) {
	case "iid":
		return dataset.IID{}, nil
	case "dirichlet":
		return dataset.Dirichlet{Alpha: alpha}, nil
	case "shards":
		return dataset.Shards{ShardsPerNode: 2}, nil
	default:
		return nil, fmt.Errorf("unknown partition %q (want iid, dirichlet, or shards)", name)
	}
}
