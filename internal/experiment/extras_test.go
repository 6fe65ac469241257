package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestExtraRegistry(t *testing.T) {
	extras := ExtraArtifacts()
	if len(extras) != 5 {
		t.Fatalf("extras %d, want 5", len(extras))
	}
	for _, a := range extras {
		if strings.Contains(Describe(a), "unknown") {
			t.Fatalf("%s undescribed", a)
		}
		if slices.Contains(Artifacts(), a) {
			t.Fatalf("ablation %s listed as a paper artifact", a)
		}
		if _, err := ComparisonDefaults(a); err == nil {
			t.Fatalf("ablation %s has comparison defaults", a)
		}
		if _, err := ConvergenceDefaults(a); err == nil {
			t.Fatalf("ablation %s has convergence defaults", a)
		}
	}
}

// runAblation runs an ablation study through RunJobs, which must return
// its report and no CSV series.
func runAblation(t *testing.T, a Artifact, scale float64, jobs int) string {
	t.Helper()
	report, csv, err := RunJobs(a, scale, jobs)
	if err != nil {
		t.Fatalf("RunJobs(%s): %v", a, err)
	}
	if csv != nil {
		t.Fatalf("RunJobs(%s) returned a CSV series for an ablation", a)
	}
	return report
}

func TestRunExtraRejectsBadInput(t *testing.T) {
	if _, _, err := RunJobs(AblLambda, 0, 1); err == nil {
		t.Fatal("accepted scale 0")
	}
	if _, _, err := RunJobs(Artifact("abl-nope"), 0.5, 1); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

func TestRunExtraLambdaTiny(t *testing.T) {
	report := runAblation(t, AblLambda, 0.002, 1) // 1 episode per λ
	for _, want := range []string{"lambda", "500", "2000", "8000"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunExtraRewardTiny(t *testing.T) {
	report := runAblation(t, AblReward, 0.002, 1)
	if !strings.Contains(report, "eqn14") {
		t.Fatalf("report missing eqn14 row:\n%s", report)
	}
}

func TestRunExtraRobustTiny(t *testing.T) {
	report := runAblation(t, AblRobust, 0.002, 1)
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
	report := runAblation(t, AblNonIID, 0.04, 1) // 1 round per split
	for _, want := range []string{"iid", "dirichlet", "shards"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunExtraFaultSweepTiny(t *testing.T) {
	report := runAblation(t, AblFaults, 0.002, 1)
	for _, want := range []string{"clean", "light", "moderate", "severe", "failures"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunDispatchesExtras(t *testing.T) {
	report := runAblation(t, AblLambda, 0.002, 1)
	if !strings.HasPrefix(report, Describe(AblLambda)) || !strings.Contains(report, "lambda") {
		t.Fatalf("RunJobs did not dispatch to the ablation:\n%s", report)
	}
}

// TestFrozenPolicyReportsMatchGoldens pins the report of every artifact,
// the paper's and the ablations', byte for byte at scale 0.002 (one
// episode, or one FedAvg round, per cell) and at one and two workers. The
// abl-robust and abl-faults goldens were rendered when those studies still
// evaluated every scenario in one batched lockstep pass, so they also pin
// that per-scenario mechanism.Evaluate jobs reproduce that evaluator's
// results exactly.
func TestFrozenPolicyReportsMatchGoldens(t *testing.T) {
	all := append(Artifacts(), ExtraArtifacts()...)
	if len(all) != 12 {
		t.Fatalf("%d artifacts, want 12", len(all))
	}
	for _, a := range all {
		for _, jobs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/jobs=%d", a, jobs), func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", string(a)+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := RunJobs(a, 0.002, jobs)
				if err != nil {
					t.Fatalf("RunJobs(%s): %v", a, err)
				}
				if got != string(want) {
					t.Fatalf("report differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}
