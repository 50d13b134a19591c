package main

import "testing"

// TestMedicalEndToEnd runs the whole example: an authority server, a
// pooled key service and three clinics submitting encrypted shards over
// loopback, training, then an encrypted prediction. It is the end-to-end
// check that the control plane (key issuance) and the submission path
// interoperate across real sockets.
func TestMedicalEndToEnd(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
