package session

import (
	"testing"
	"time"

	"chiron/internal/faults"
	"chiron/internal/scenario"
)

func registrySpec(seed int64) *scenario.Spec {
	s := quickSpec("registry", seed)
	s.Classes = []scenario.DeviceClass{{Profile: "paper", Count: 5}}
	return s
}

func TestRegistryLatchScript(t *testing.T) {
	clock := NewManualClock(time.Unix(1000, 0))
	s, err := New(Config{
		Spec:             registrySpec(5),
		Clock:            clock,
		HeartbeatTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	if reg == nil {
		t.Fatal("heartbeat timeout did not arm a registry")
	}
	// Node 0: present from the start, healthy heartbeats → no events.
	// Node 1: arrives at round 4, healthy → "+1@4".
	// Node 2: present from the start, declares progress through round 7,
	//         then its heartbeat lapses → "-2@7".
	// Node 3: arrives at round 6, deregisters explicitly at round 9 →
	//         "+3@6,-3@9".
	// Node 4: never registers → full member, no events.
	for node, from := range map[int]int{0: 1, 1: 4, 2: 1, 3: 6} {
		if err := reg.Register(node, from); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Heartbeat(2, 7); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second)
	for _, node := range []int{0, 1} {
		if err := reg.Heartbeat(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Deregister(3, 9); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // node 2's deadline passes
	if err := reg.Heartbeat(2, 9); err == nil {
		t.Fatal("lapsed node heartbeat accepted")
	}
	if got := reg.Live(); got != 2 {
		t.Fatalf("live nodes %d, want 2 (nodes 0 and 1)", got)
	}

	script, err := reg.Latch()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := faults.FormatChurnScript(script), "+1@4,-2@7,+3@6,-3@9"; got != want {
		t.Fatalf("latched script %q, want %q", got, want)
	}
	if err := reg.Register(4, 1); err == nil {
		t.Fatal("registration accepted after latch")
	}
	if err := reg.Heartbeat(0, 0); err == nil {
		t.Fatal("heartbeat accepted after latch")
	}
}

func TestRegistryValidation(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	reg := newRegistry(clock, time.Second, 3, 20)
	if err := reg.Register(3, 1); err == nil {
		t.Error("out-of-fleet node registered")
	}
	if err := reg.Register(-1, 1); err == nil {
		t.Error("negative node registered")
	}
	if err := reg.Register(0, 25); err == nil {
		t.Error("arrival beyond the round cap accepted")
	}
	if err := reg.Heartbeat(1, 0); err == nil {
		t.Error("heartbeat from unregistered node accepted")
	}
	if err := reg.Deregister(1, 0); err == nil {
		t.Error("deregister of unregistered node accepted")
	}
	if err := reg.Register(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := reg.Deregister(1, 3); err == nil {
		t.Error("departure before arrival accepted")
	}
}

func TestRegistryLapseBeforeArrivalNeverJoins(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	reg := newRegistry(clock, time.Second, 3, 20)
	// Node 1 announces a late arrival at round 8 and then vanishes before
	// declaring any progress: it must never enter the pool at all.
	if err := reg.Register(1, 8); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	script, err := reg.Latch()
	if err != nil {
		t.Fatal(err)
	}
	present, _ := script.Membership(8, 1)
	if present {
		t.Fatal("lapsed-before-arrival node present at its arrival round")
	}
	for round := 1; round <= 20; round++ {
		if p, _ := script.Membership(round, 1); p {
			t.Fatalf("lapsed-before-arrival node present at round %d", round)
		}
	}
}

// TestRegistrySessionMatchesCLITwin is the live-churn half of the
// bit-identity contract: a session whose membership came from live
// registration and a missed heartbeat produces exactly the digest of a
// CLI run whose spec carries the latched script verbatim.
func TestRegistrySessionMatchesCLITwin(t *testing.T) {
	clock := NewManualClock(time.Unix(2000, 0))
	s, err := New(Config{
		Spec:             registrySpec(17),
		Clock:            clock,
		HeartbeatTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	if err := reg.Register(1, 3); err != nil { // late arrival
		t.Fatal(err)
	}
	if err := reg.Register(2, 1); err != nil { // will miss its heartbeat
		t.Fatal(err)
	}
	if err := reg.Heartbeat(2, 6); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Second)
	if err := reg.Heartbeat(1, 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Second) // node 2 lapses; node 1 stays fresh
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(); got != StateDone {
		t.Fatalf("final state %s (err %v)", got, s.Err())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	script := s.Snapshot().Churn
	if script != "+1@3,-2@6" {
		t.Fatalf("latched script %q, want \"+1@3,-2@6\"", script)
	}

	twin := registrySpec(17)
	twin.Churn = &scenario.ChurnSpec{Script: script}
	want, err := scenario.Run(twin, 1, scenario.CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != want.Digest() {
		t.Fatalf("live-churn session digest %s != CLI twin %s", res.Digest(), want.Digest())
	}

	// The churn genuinely changed the run: the no-churn digest differs.
	base, err := scenario.Run(registrySpec(17), 1, scenario.CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest() == res.Digest() {
		t.Fatal("latched churn had no effect on the run")
	}
}
