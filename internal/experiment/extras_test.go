package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExtraRegistry(t *testing.T) {
	extras := ExtraArtifacts()
	if len(extras) != 5 {
		t.Fatalf("extras %d, want 5", len(extras))
	}
	for _, a := range extras {
		if !IsExtra(a) {
			t.Fatalf("%s not recognized as extra", a)
		}
		if strings.Contains(DescribeExtra(a), "unknown") {
			t.Fatalf("%s undescribed", a)
		}
	}
	for _, a := range Artifacts() {
		if IsExtra(a) {
			t.Fatalf("paper artifact %s claimed as extra", a)
		}
	}
}

func TestRunExtraRejectsBadInput(t *testing.T) {
	if _, err := RunExtra(AblLambda, 0); err == nil {
		t.Fatal("accepted scale 0")
	}
	if _, err := RunExtra(Artifact("abl-nope"), 0.5); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

func TestRunExtraLambdaTiny(t *testing.T) {
	report, err := RunExtra(AblLambda, 0.002) // 1 episode per λ
	if err != nil {
		t.Fatalf("RunExtra: %v", err)
	}
	for _, want := range []string{"lambda", "500", "2000", "8000"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunExtraRewardTiny(t *testing.T) {
	report, err := RunExtra(AblReward, 0.002)
	if err != nil {
		t.Fatalf("RunExtra: %v", err)
	}
	if !strings.Contains(report, "eqn14") {
		t.Fatalf("report missing eqn14 row:\n%s", report)
	}
}

func TestRunExtraRobustTiny(t *testing.T) {
	report, err := RunExtra(AblRobust, 0.002)
	if err != nil {
		t.Fatalf("RunExtra: %v", err)
	}
	for _, want := range []string{"clean", "jitter", "availability"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunExtraNonIIDTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("real training skipped in -short mode")
	}
	report, err := RunExtra(AblNonIID, 0.04) // 1 round per split
	if err != nil {
		t.Fatalf("RunExtra: %v", err)
	}
	for _, want := range []string{"iid", "dirichlet", "shards"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunExtraFaultSweepTiny(t *testing.T) {
	report, err := RunExtra(AblFaults, 0.002)
	if err != nil {
		t.Fatalf("RunExtra: %v", err)
	}
	for _, want := range []string{"clean", "light", "moderate", "severe", "failures"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunDispatchesExtras(t *testing.T) {
	report, err := Run(AblLambda, 0.002)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(report, "lambda") {
		t.Fatalf("Run did not dispatch to the ablation:\n%s", report)
	}
}

// TestFrozenPolicyReportsMatchGoldens pins the abl-robust and abl-faults
// reports byte for byte at one and two workers. The goldens were rendered
// when these studies still evaluated every scenario in one batched lockstep
// pass, so they also pin that per-scenario mechanism.Evaluate jobs reproduce
// that evaluator's results exactly.
func TestFrozenPolicyReportsMatchGoldens(t *testing.T) {
	for _, tc := range []struct {
		artifact Artifact
		jobs     int
	}{
		{AblRobust, 1},
		{AblRobust, 2},
		{AblFaults, 1},
		{AblFaults, 2},
	} {
		t.Run(fmt.Sprintf("%s/jobs=%d", tc.artifact, tc.jobs), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", string(tc.artifact)+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunExtraJobs(tc.artifact, 0.002, tc.jobs)
			if err != nil {
				t.Fatalf("RunExtraJobs: %v", err)
			}
			if got != string(want) {
				t.Fatalf("report differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
