package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"chiron/internal/accuracy"
)

// TestDatasetAliases checks that a spec's dataset takes every name of
// accuracy.ParsePreset, the vocabulary the chiron CLI shares (its test
// walks the same table), in any letter case, and resolves it
// to the same preset: a parsed spec with "dataset": "cifar10" is valid.
func TestDatasetAliases(t *testing.T) {
	for _, name := range accuracy.PresetNames() {
		want, err := accuracy.ParsePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			s := validSpec()
			s.Dataset = spelled
			data, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Parse(data); err != nil {
				t.Errorf("spec with dataset %q: %v", spelled, err)
			}
			if got, err := datasetPreset(spelled); err != nil || got != want {
				t.Errorf("datasetPreset(%q) = %v, %v; want %v", spelled, got, err, want)
			}
		}
	}
}
