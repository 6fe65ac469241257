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

func TestRunExtraRejectsBadInput(t *testing.T) {
	if _, _, err := RunJobs(AblLambda, 0, 1); err == nil {
		t.Fatal("accepted scale 0")
	}
	if _, _, err := RunJobs(Artifact("abl-nope"), 0.5, 1); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

// TestFrozenPolicyReportsMatchGoldens pins the report of every artifact,
// the paper's and the ablations', byte for byte at scale 0.002 (one
// episode, or one FedAvg round, per cell) and at one and two workers, and
// checks that an ablation returns no CSV series. The abl-robust and
// abl-faults goldens were rendered when those studies still evaluated
// every scenario in one batched lockstep pass, so they also pin that
// per-scenario mechanism.Evaluate jobs reproduce that evaluator's results
// exactly.
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
				got, csv, err := RunJobs(a, 0.002, jobs)
				if err != nil {
					t.Fatalf("RunJobs(%s): %v", a, err)
				}
				if csv != nil && slices.Contains(ExtraArtifacts(), a) {
					t.Fatalf("RunJobs(%s) returned a CSV series for an ablation", a)
				}
				if got != string(want) {
					t.Fatalf("report differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}
