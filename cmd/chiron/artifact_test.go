package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiron/internal/experiment"
)

// TestRunArtifactsOut drives 'run -artifact ... -out DIR' over two paper
// artifacts and one ablation: each paper artifact's CSV must be the bytes
// experiment.RunJobs renders, the ablation writes no CSV, and summary.txt
// holds every report, one after another.
func TestRunArtifactsOut(t *testing.T) {
	const scale = 0.002
	dir := t.TempDir()
	if err := run([]string{"run", "-artifact", "fig3,fig4,abl-lambda", "-scale", "0.002", "-out", dir}); err != nil {
		t.Fatalf("run -artifact -out: %v", err)
	}
	var summary strings.Builder
	for _, id := range []experiment.Artifact{experiment.Fig3, experiment.Fig4, experiment.AblLambda} {
		report, csv, err := experiment.RunJobs(id, scale, 1)
		if err != nil {
			t.Fatalf("RunJobs(%s): %v", id, err)
		}
		summary.WriteString(report + "\n")
		got, err := os.ReadFile(filepath.Join(dir, string(id)+".csv"))
		if csv == nil {
			if !os.IsNotExist(err) {
				t.Errorf("ablation %s wrote a CSV (err %v)", id, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, csv) {
			t.Errorf("%s.csv differs from RunJobs' series:\ngot:\n%s\nwant:\n%s", id, got, csv)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != summary.String() {
		t.Errorf("summary.txt differs from the concatenated reports:\ngot:\n%s\nwant:\n%s", got, summary.String())
	}
	if err := run([]string{"run", "-artifact", "fig3,fig99", "-scale", "0.002", "-out", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Errorf("unknown artifact id: error %v, want unknown artifact", err)
	}
}
