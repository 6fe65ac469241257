package main

import (
	"reflect"
	"strings"
	"testing"

	"chiron/internal/accuracy"
)

// TestParseSpecAliases checks that -dataset takes every name of
// accuracy.ParsePreset, the vocabulary scenario specs share, in any letter
// case, and resolves it to the synthetic task of the preset's canonical
// name; the Table I preset names no task and is refused.
func TestParseSpecAliases(t *testing.T) {
	const samples = 300
	for _, name := range accuracy.PresetNames() {
		p, err := accuracy.ParsePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := parseSpec(p.String(), samples)
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			got, err := parseSpec(spelled, samples)
			if p == accuracy.PresetMNISTLarge {
				if err == nil {
					t.Errorf("parseSpec(%q) accepted the Table I preset", spelled)
				}
				continue
			}
			if wantErr != nil || err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("parseSpec(%q) = %+v, %v; want %+v (%v)", spelled, got, err, want, wantErr)
			}
		}
	}
	mnist, _ := parseSpec("mnist", samples)
	cifar, _ := parseSpec("cifar", samples)
	if reflect.DeepEqual(mnist, cifar) {
		t.Fatal("mnist and cifar resolve to the same task")
	}
}
