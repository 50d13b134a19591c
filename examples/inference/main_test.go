package main

import "testing"

// TestInference runs all three prediction settings: FE-based prediction
// through the secure feed-forward step, the label map round trip, and
// the ElGamal linear model whose scores only the client decrypts.
func TestInference(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
