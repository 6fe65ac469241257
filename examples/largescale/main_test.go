package main

import (
	"io"
	"testing"
)

// TestRunSmoke runs the Table I sweep with one tiny budget and a small
// fleet, keeping the example exercised without the paper-scale cost.
func TestRunSmoke(t *testing.T) {
	if err := run(io.Discard, 4, 2, []float64{40}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
