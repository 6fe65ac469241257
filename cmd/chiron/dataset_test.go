package main

import (
	"strings"
	"testing"

	"chiron"
	"chiron/internal/accuracy"
)

// TestParseDatasetAliases checks that -dataset takes every name of
// accuracy.ParsePreset, the vocabulary scenario specs share, in any letter
// case, and resolves it to that preset, which is the task's chiron.Dataset;
// the Table I preset names no task and is refused.
func TestParseDatasetAliases(t *testing.T) {
	task := map[accuracy.Preset]bool{
		chiron.DatasetMNIST:        true,
		chiron.DatasetFashionMNIST: true,
		chiron.DatasetCIFAR10:      true,
	}
	for _, name := range accuracy.PresetNames() {
		p, err := accuracy.ParsePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		isTask := task[p]
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			got, err := parseDataset(spelled)
			switch {
			case !isTask && err == nil:
				t.Errorf("parseDataset(%q) = %v, want an error", spelled, got)
			case isTask && (err != nil || got != p):
				t.Errorf("parseDataset(%q) = %v, %v; want %v", spelled, got, err, p)
			}
		}
	}
	if _, err := parseDataset("imagenet"); err == nil {
		t.Error("parseDataset(imagenet) accepted")
	}
}
