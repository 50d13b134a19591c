package main

import "testing"

// TestMNISTSmall runs the Fig. 6 / Table III comparison at a small scale:
// a plaintext model and its CryptoNN twin trained from identical
// initialisation on encrypted synthetic digits.
func TestMNISTSmall(t *testing.T) {
	args := []string{"-samples", "20", "-test", "10", "-batch", "10", "-epochs", "1", "-hidden", "8", "-par", "1"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}
