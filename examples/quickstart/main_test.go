package main

import "testing"

// TestQuickstart runs the whole walkthrough — FEIP, FEBO and the secure
// matrix operations — which fails on any result that disagrees with its
// plaintext check.
func TestQuickstart(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
