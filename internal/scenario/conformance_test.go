package scenario

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite conformance golden files")

// conformanceSpec returns the library scenario as the conformance suite
// runs it: fig4-grid — the paper-scale grid — is scaled down so the whole
// corpus stays CI-cheap while still driving all three DRL mechanisms.
func conformanceSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("library scenario %q missing", name)
	}
	if name == "fig4-grid" {
		s = s.Scale(0.01)
	}
	return s
}

// TestConformanceGoldens pins every library scenario's full-grid summary —
// readable per-cell lines plus the ULP-exact digest — against a golden
// file. Any drift in the environment model, the compiler, a mechanism, or
// the scheduler shows up as a digest mismatch here before it can silently
// shift experiment results. Regenerate with: go test ./internal/scenario
// -run TestConformanceGoldens -update
func TestConformanceGoldens(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceSpec(t, name)
			res, err := Run(s, 0, CellHooks{})
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			got := []byte(res.Summary())
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("summary drifted from golden %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestRunWorkerInvariance asserts the conformance invariant the goldens
// rely on: a scenario grid digests identically whether its cells run
// serially or concurrently.
func TestRunWorkerInvariance(t *testing.T) {
	s := conformanceSpec(t, "budget-pacing")
	serial, err := Run(s, 1, CellHooks{})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(s, 4, CellHooks{})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if serial.Digest() != parallel.Digest() {
		t.Errorf("digest depends on worker count: serial %s, 4 workers %s",
			serial.Digest(), parallel.Digest())
	}
}

// TestDigestDetectsOneULP proves the digest is bit-sensitive: nudging one
// result field by one ULP must change it.
func TestDigestDetectsOneULP(t *testing.T) {
	s := conformanceSpec(t, "paper-baseline")
	res, err := Run(s, 1, CellHooks{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	before := res.Digest()
	v := res.Cells[0].Result.FinalAccuracy
	res.Cells[0].Result.FinalAccuracy = math.Nextafter(v, math.Inf(1))
	if after := res.Digest(); after == before {
		t.Errorf("digest unchanged by one-ULP drift: %s", before)
	}
}
