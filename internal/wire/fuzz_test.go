package wire

// Native fuzz targets for every decoder that sees untrusted bytes. Each
// target is seeded with the committed golden frame bodies (every body in
// every target, so each decoder also meets its neighbours' layouts) and
// asserts three things per input: no panic, allocation bounded by the
// body length, and decode→re-encode identity for every accepted body
// (each message has exactly one encoding). Crashers found by
// `make fuzz-smoke` are committed under testdata/fuzz/<Target>/ and replay
// as ordinary test cases.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Allocation budget per decode: a fixed slack plus a per-body-byte
// factor. The densest legitimate layouts (one-byte elements, each
// becoming a *big.Int) cost well under 128 bytes of heap per body byte;
// a decoder that sizes an allocation by an unchecked count blows far past
// this.
const (
	fuzzAllocSlack   = 1 << 20
	fuzzAllocPerByte = 128
)

// seedGoldens adds the body of every committed golden frame (the raw
// bytes of the 8-byte handshake files) to the target's corpus.
func seedGoldens(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden frames to seed from: %v", err)
	}
	for _, p := range paths {
		frame, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if len(frame) >= binHeaderLen {
			frame = frame[binHeaderLen:]
		}
		f.Add(frame)
	}
}

// fuzzDecoder runs one target: decode must not panic or over-allocate,
// and an accepted body must re-encode to itself.
func fuzzDecoder(f *testing.F, roundTrip func(body []byte) (reencoded []byte, ok bool, err error)) {
	seedGoldens(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round, ok, err := roundTrip(body)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocSlack+fuzzAllocPerByte*len(body)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		if !bytes.Equal(round, body) {
			t.Fatalf("decode→re-encode is not the identity:\n in  %x\n out %x", body, round)
		}
	})
}

func FuzzRequest(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		req, err := decodeRequest(body, DefaultMaxEta)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendRequest(nil, req)
		return b, true, err
	})
}

func FuzzResponse(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		kind, resp, err := decodeResponse(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendResponse(nil, kind, resp)
		return b, true, err
	})
}

func FuzzEncryptedBatch(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		enc, err := decodeEncryptedBatch(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendEncryptedBatch(nil, enc)
		return b, true, err
	})
}

func FuzzConvBatch(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		enc, err := decodeConvBatch(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendConvBatch(nil, enc)
		return b, true, err
	})
}

func FuzzSparseBatch(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		k, sp, err := decodeSparseBatch(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendSparseBatch(nil, k, sp)
		return b, true, err
	})
}

func FuzzPreds(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		preds, err := decodePreds(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendPreds(nil, preds)
		return b, true, err
	})
}

func FuzzTopKHits(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		hits, err := decodeTopKHits(body)
		if err != nil {
			return nil, false, nil
		}
		b, err := appendTopKHits(nil, hits)
		return b, true, err
	})
}

func FuzzErrBody(f *testing.F) {
	fuzzDecoder(f, func(body []byte) ([]byte, bool, error) {
		msg, retryable, err := decodeErrBody(body)
		if err != nil {
			return nil, false, nil
		}
		var mc memConn
		if err := newBinConn(&mc).writeErr(1, msg, retryable); err != nil {
			return nil, true, err
		}
		return mc.Bytes()[binHeaderLen:], true, nil
	})
}
