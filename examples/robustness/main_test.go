package main

import (
	"io"
	"testing"
)

// TestRunSmoke trains a tiny policy and evaluates it under every jitter,
// availability, fault and churn regime with one evaluation episode each.
func TestRunSmoke(t *testing.T) {
	if err := run(io.Discard, 3, 2, 1, 60); err != nil {
		t.Fatalf("run: %v", err)
	}
}
