package accuracy

import (
	"errors"
	"strings"
	"testing"
)

// TestParsePreset checks the dataset vocabulary: every name resolves in any
// letter case, every preset's String resolves back to it, and an unknown
// name is ErrUnknownPreset.
func TestParsePreset(t *testing.T) {
	names := PresetNames()
	if len(names) != len(presetNames) {
		t.Fatalf("PresetNames has %d names, vocabulary %d", len(names), len(presetNames))
	}
	for _, name := range names {
		want := presetNames[name]
		for _, spelled := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, err := ParsePreset(spelled); err != nil || got != want {
				t.Errorf("ParsePreset(%q) = %v, %v; want %v", spelled, got, err, want)
			}
		}
	}
	for _, p := range []Preset{PresetMNIST, PresetFashion, PresetCIFAR, PresetMNISTLarge} {
		if got, err := ParsePreset(p.String()); err != nil || got != p {
			t.Errorf("ParsePreset(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePreset("imagenet"); !errors.Is(err, ErrUnknownPreset) {
		t.Errorf("ParsePreset(imagenet) error = %v, want ErrUnknownPreset", err)
	}
}
