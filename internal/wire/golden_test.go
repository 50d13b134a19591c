package wire

// Golden-frame protocol compatibility tests: one committed frame per
// message kind under testdata/golden/, byte-compared in both directions
// (today's encoder must reproduce the golden, today's decoder must accept
// it and re-encode it canonically). The layouts are hand-specified in
// docs/PROTOCOL.md, so any byte drift is a compatibility break.
//
// A mismatch is only allowed together with a codec version bump and
// regenerated goldens (see "Changing the wire format" in
// docs/PROTOCOL.md):
//
//	go test ./internal/wire/ -run TestGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden frame files")

// memConn adapts a bytes.Buffer to net.Conn so binConn frames can be
// built and replayed in memory.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// binFrame renders one full binary frame (header + body) to bytes.
func binFrame(t *testing.T, ftype byte, id uint64, fill func([]byte) ([]byte, error)) []byte {
	t.Helper()
	var mc memConn
	if err := newBinConn(&mc).writeFrame(ftype, id, fill); err != nil {
		t.Fatalf("frame type 0x%02x: %v", ftype, err)
	}
	return append([]byte(nil), mc.Bytes()...)
}

// goldenMessages is the canonical message set, built from a fixed seed.
// The construction order is part of the fixture: the shared rng makes
// each message's contents depend on it.
type goldenMessages struct {
	predictBatch *core.EncryptedBatch
	submitBatch  *core.EncryptedBatch
	convBatch    *core.EncryptedConvBatch
	preds        []int
	sparseBatch  *core.SparseBatch
	topk         [][]dlog.TopKHit
}

func newGoldenMessages() goldenMessages {
	rng := rand.New(rand.NewSource(42))
	// New messages draw from the shared rng strictly after the existing
	// ones — inserting a draw earlier would silently re-roll every later
	// fixture and show up as a spurious golden mismatch.
	return goldenMessages{
		predictBatch: synthBatch(rng, 3, 4, 2, false),
		submitBatch:  synthBatch(rng, 3, 4, 2, true),
		convBatch:    synthConvBatch(rng),
		preds:        []int{3, 0, 2},
		sparseBatch:  synthSparseBatch(rng, 6, 4, 2, 3),
		topk: [][]dlog.TopKHit{
			{{Index: 3, Value: 123456}, {Index: 0, Value: -7}},
			{{Index: 1, Value: 1 << 40}},
		},
	}
}

// binaryGoldens renders the byte-pinned binary-codec frame set.
func binaryGoldens(t *testing.T, m goldenMessages) map[string][]byte {
	t.Helper()
	hello := helloFrame(CodecVersion)
	helloAck := ackFrame(CodecVersion)
	var errConn memConn
	if err := newBinConn(&errConn).writeErr(11, "prediction queue full", true); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		// Handshake: only the version field may ever move.
		"hello.bin":     hello[:],
		"hello_ack.bin": helloAck[:],

		"predict_binary.bin": binFrame(t, bfPredict, 7, func(b []byte) ([]byte, error) {
			return appendEncryptedBatch(b, m.predictBatch)
		}),
		"submit_binary.bin": binFrame(t, bfSubmit, 8, func(b []byte) ([]byte, error) {
			return appendEncryptedBatch(b, m.submitBatch)
		}),
		"submitconv_binary.bin": binFrame(t, bfSubmitConv, 9, func(b []byte) ([]byte, error) {
			return appendConvBatch(b, m.convBatch)
		}),
		"done_binary.bin": binFrame(t, bfDone, 10, func(b []byte) ([]byte, error) { return b, nil }),
		"ack_binary.bin":  binFrame(t, bfAck, 10, func(b []byte) ([]byte, error) { return b, nil }),
		"preds_binary.bin": binFrame(t, bfPreds, 7, func(b []byte) ([]byte, error) {
			return appendPreds(b, m.preds)
		}),
		"predicttopk_binary.bin": binFrame(t, bfPredictTopK, 12, func(b []byte) ([]byte, error) {
			return appendSparseBatch(b, 2, m.sparseBatch)
		}),
		"topk_binary.bin": binFrame(t, bfTopK, 12, func(b []byte) ([]byte, error) {
			return appendTopKHits(b, m.topk)
		}),
		"err_binary.bin": append([]byte(nil), errConn.Bytes()...),
	}
}

// controlGolden is one control-plane exchange: a request and the
// success response answering it.
type controlGolden struct {
	name string
	req  *Request
	resp *Response
}

// controlGoldens is the control-plane fixture set, one exchange per
// request kind, built from literals (small integers of varied widths —
// the codec does not care whether they are group elements).
func controlGoldens() []controlGolden {
	p, q, g := big.NewInt(2039), big.NewInt(1019), big.NewInt(4)
	el := func(vs ...int64) []*big.Int {
		out := make([]*big.Int, len(vs))
		for i, v := range vs {
			out[i] = big.NewInt(v)
		}
		return out
	}
	return []controlGolden{
		{"clusterinfo", &Request{Kind: KindClusterInfo},
			&Response{NodeIndex: 2, Threshold: 2, Nodes: 3, GroupP: p, GroupQ: q, GroupG: g, H: el(1024), HShares: el(16, 256, 1877)}},
		{"feippublic", &Request{Kind: KindFEIPPublic, Eta: 3},
			&Response{GroupP: p, GroupQ: q, GroupG: g, H: el(9, 300, 81)}},
		{"febopublic", &Request{Kind: KindFEBOPublic},
			&Response{NodeIndex: 1, GroupP: p, GroupQ: q, GroupG: g, H: el(1500)}},
		{"ipkey", &Request{Kind: KindIPKey, Y: []int64{1, -2, 3}},
			&Response{K: big.NewInt(777)}},
		{"ipkeysparse", &Request{Kind: KindIPKeySparse, Eta: 10000, Idx: []int{3, 77, 9999}, Y: []int64{5, -1, 0}},
			&Response{K: big.NewInt(0)}},
		{"ipkeybatch", &Request{Kind: KindIPKeyBatch, YBatch: [][]int64{{1, 2}, {-3, 1 << 40}}},
			&Response{KBatch: el(5, 70000)}},
		{"bokey", &Request{Kind: KindBOKey, Cmt: big.NewInt(1234), Op: int(febo.OpMul), Scalar: -9},
			&Response{K: big.NewInt(42)}},
		{"bokeybatch", &Request{Kind: KindBOKeyBatch, Cmts: el(3, 1999), Op: int(febo.OpAdd), Scalars: []int64{4, -4}},
			&Response{KBatch: el(11, 12)}},
		{"partialipkeybatch", &Request{Kind: KindPartialIPKeyBatch, YBatch: [][]int64{{7}, {0}}},
			&Response{NodeIndex: 1, KBatch: el(100, 0)}},
		{"partialbokeybatch", &Request{Kind: KindPartialBOKeyBatch, Cmts: el(8), Op: int(febo.OpSub), Scalars: []int64{2}},
			&Response{NodeIndex: 3, KBatch: el(1500), ProofC: big.NewInt(99), ProofZ: big.NewInt(1018)}},
	}
}

// controlFrames renders the control-plane goldens: <name>_req.bin and
// <name>_resp.bin per exchange.
func controlFrames(t *testing.T) map[string][]byte {
	t.Helper()
	frames := map[string][]byte{}
	for i, cg := range controlGoldens() {
		id := uint64(20 + i)
		frames[cg.name+"_req.bin"] = binFrame(t, bfRequest, id, func(b []byte) ([]byte, error) {
			return appendRequest(b, cg.req)
		})
		frames[cg.name+"_resp.bin"] = binFrame(t, bfResponse, id, func(b []byte) ([]byte, error) {
			return appendResponse(b, cg.req.Kind, cg.resp)
		})
	}
	return frames
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	frame, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden (run with -update after an intentional format change): %v", err)
	}
	return frame
}

func TestGoldenFrames(t *testing.T) {
	m := newGoldenMessages()
	binFrames := binaryGoldens(t, m)
	for name, frame := range controlFrames(t) {
		binFrames[name] = frame
	}
	if *updateGolden {
		dir := filepath.Join("testdata", "golden")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range binFrames {
			if err := os.WriteFile(filepath.Join(dir, name), frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote golden frames in %s", dir)
		return
	}
	for name, frame := range binFrames {
		if want := readGolden(t, name); !bytes.Equal(frame, want) {
			t.Errorf("%s: encoding changed (%d bytes, golden %d).\n"+
				"The wire format is a compatibility contract: bump CodecVersion and regenerate\n"+
				"goldens with -update per docs/PROTOCOL.md, or revert the encoding change.",
				name, len(frame), len(want))
		}
	}
}

// TestGoldenFramesDecodeBinary replays each committed binary golden
// through the current decoder and re-encodes it. Byte-identity both
// proves the decoder still accepts historical frames and pins the
// canonical-form property (exactly one encoding per message).
func TestGoldenFramesDecodeBinary(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens being rewritten")
	}
	reencode := map[string]func(body []byte) ([]byte, error){
		"predict_binary.bin": func(body []byte) ([]byte, error) {
			enc, err := decodeEncryptedBatch(body)
			if err != nil {
				return nil, err
			}
			return appendEncryptedBatch(nil, enc)
		},
		"submit_binary.bin": func(body []byte) ([]byte, error) {
			enc, err := decodeEncryptedBatch(body)
			if err != nil {
				return nil, err
			}
			return appendEncryptedBatch(nil, enc)
		},
		"submitconv_binary.bin": func(body []byte) ([]byte, error) {
			enc, err := decodeConvBatch(body)
			if err != nil {
				return nil, err
			}
			return appendConvBatch(nil, enc)
		},
		"preds_binary.bin": func(body []byte) ([]byte, error) {
			preds, err := decodePreds(body)
			if err != nil {
				return nil, err
			}
			return appendPreds(nil, preds)
		},
		"predicttopk_binary.bin": func(body []byte) ([]byte, error) {
			k, sp, err := decodeSparseBatch(body)
			if err != nil {
				return nil, err
			}
			return appendSparseBatch(nil, k, sp)
		},
		"topk_binary.bin": func(body []byte) ([]byte, error) {
			hits, err := decodeTopKHits(body)
			if err != nil {
				return nil, err
			}
			return appendTopKHits(nil, hits)
		},
		"err_binary.bin": func(body []byte) ([]byte, error) {
			msg, retryable, err := decodeErrBody(body)
			if err != nil {
				return nil, err
			}
			if !retryable || msg != "prediction queue full" {
				return nil, fmt.Errorf("decoded msg=%q retryable=%v", msg, retryable)
			}
			return body, nil
		},
	}
	for _, cg := range controlGoldens() {
		kind := cg.req.Kind
		reencode[cg.name+"_req.bin"] = func(body []byte) ([]byte, error) {
			req, err := decodeRequest(body, DefaultMaxEta)
			if err != nil {
				return nil, err
			}
			return appendRequest(nil, req)
		}
		reencode[cg.name+"_resp.bin"] = func(body []byte) ([]byte, error) {
			got, resp, err := decodeResponse(body)
			if err != nil {
				return nil, err
			}
			if got != kind {
				return nil, fmt.Errorf("decoded kind %s, want %s", got, kind)
			}
			return appendResponse(nil, got, resp)
		}
	}
	for name, re := range reencode {
		frame := readGolden(t, name)
		var mc memConn
		mc.Write(frame)
		ftype, id, body, err := newBinConn(&mc).readFrame()
		if err != nil {
			t.Errorf("%s: decoder rejects committed frame: %v", name, err)
			continue
		}
		if id == 0 {
			t.Errorf("%s: zero request id", name)
		}
		round, err := re(body)
		if err != nil {
			t.Errorf("%s (type 0x%02x): %v", name, ftype, err)
			continue
		}
		if !bytes.Equal(round, frame[binHeaderLen:]) {
			t.Errorf("%s: decode→re-encode is not canonical (%d vs %d body bytes)",
				name, len(round), len(frame)-binHeaderLen)
		}
	}
}
