package wire

// Regression tests for the server and client hardening added alongside the
// threshold authority cluster: request-size limits, per-request panic
// containment, and bounded/cancellable client exchanges.

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"io"
	"log"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

func TestServerRejectsOversizedRequests(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAuthorityServerOpts(auth, nil, AuthorityServerOptions{MaxEta: 4})
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]int64, 5)
	cmts := make([]*big.Int, 5)
	for i := range cmts {
		cmts[i] = big.NewInt(1)
	}
	for _, req := range []*Request{
		{Kind: KindFEIPPublic, Eta: 5},
		{Kind: KindIPKey, Y: wide},
		{Kind: KindIPKeyBatch, YBatch: [][]int64{wide}},
		{Kind: KindIPKeyBatch, YBatch: [][]int64{{1}, {1}, {1}, {1}, {1}}},
		{Kind: KindPartialIPKeyBatch, YBatch: [][]int64{wide}},
		{Kind: KindBOKeyBatch, Cmts: cmts, Scalars: wide},
		{Kind: KindPartialBOKeyBatch, Cmts: cmts, Scalars: wide},
	} {
		resp := srv.safeDispatch(req)
		if resp.Err == "" || !strings.Contains(resp.Err, "exceeds server limits") {
			t.Errorf("%s: oversized request not rejected (err %q)", req.Kind, resp.Err)
		}
	}
	if got := srv.Stats().Rejected; got != 7 {
		t.Errorf("Rejected = %d, want 7", got)
	}
	// At the limit is fine.
	if resp := srv.safeDispatch(&Request{Kind: KindFEIPPublic, Eta: 4}); resp.Err != "" {
		t.Errorf("η at the cap rejected: %s", resp.Err)
	}
}

func TestSafeDispatchContainsPanics(t *testing.T) {
	// A server with neither authority nor node: any dispatch panics on a
	// nil dereference, standing in for an unexpected bug in a key path.
	srv := &AuthorityServer{log: log.New(io.Discard, "", 0), maxEta: 16}
	resp := srv.safeDispatch(&Request{Kind: KindFEIPPublic, Eta: 2})
	if resp == nil || !strings.Contains(resp.Err, "internal error") {
		t.Fatalf("panicking dispatch answered %+v", resp)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}

// wedgedServer accepts connections, completes the handshake and reads
// frames but never answers.
func wedgedServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if acceptHello(conn) != nil {
					return
				}
				for bc := newBinConn(conn); ; {
					if _, _, _, err := bc.readFrame(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestRemoteKeyServiceTimeout(t *testing.T) {
	addr := wedgedServer(t)
	svc, err := DialKeyServiceOpts(addr, KeyClientOptions{Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	start := time.Now()
	if _, err := svc.IPKey([]int64{1, 2}); !IsTimeout(err) {
		t.Fatalf("want timeout against wedged authority, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

func TestRemoteKeyServiceContextCancel(t *testing.T) {
	addr := wedgedServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := DialKeyServiceOpts(addr, KeyClientOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := svc.IPKey([]int64{3})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancellation did not unblock the exchange")
	}
	wg.Wait()

	// Future exchanges fail fast on the dead context.
	if _, err := svc.IPKey([]int64{3}); err == nil {
		t.Fatal("exchange succeeded on a cancelled context")
	}
}

// hostileBody assembles a request body from raw pieces.
func hostileBody(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func u32b(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
func u16b(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }

// TestAuthorityServerSurvivesHostileFrames sends crafted control-plane
// frames to a single authority and to a cluster node. Each must cost one
// bfErr reply, never a panic, and the connection must keep serving valid
// key requests afterwards.
func TestAuthorityServerSurvivesHostileFrames(t *testing.T) {
	const maxEta = 8
	params := group.TestParams()
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewAuthorityServerOpts(auth, nil, AuthorityServerOptions{MaxEta: maxEta})
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := authority.NewCluster(params, authority.AllowAll(), 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNodeServer(nodes[0], nil, AuthorityServerOptions{MaxEta: maxEta})
	if err != nil {
		t.Fatal(err)
	}
	cmt := params.PowGInt64(5).Bytes()
	over := u32b(maxEta + 1)
	for _, mode := range []struct {
		name         string
		srv          *AuthorityServer
		ipBatch, bo  MsgKind
		valid        *Request
		wantRejected uint64
	}{
		{"single", single, KindIPKeyBatch, KindBOKeyBatch, &Request{Kind: KindIPKey, Y: []int64{1, 2}}, 3},
		{"node", node, KindPartialIPKeyBatch, KindPartialBOKeyBatch, &Request{Kind: KindPartialIPKeyBatch, YBatch: [][]int64{{1, 2}}}, 3},
	} {
		t.Run(mode.name, func(t *testing.T) {
			addr := serveAuthority(t, mode.srv)
			bc := dialRaw(t, addr)
			rows := []struct {
				name, want string
				ftype      byte
				body       []byte
			}{
				// Counts above MaxEta fail before the (absent) elements
				// could size anything.
				{"YBatch count over MaxEta", "exceeds server limits", bfRequest,
					hostileBody([]byte{byte(mode.ipBatch)}, over)},
				{"Idx count over MaxEta", "exceeds server limits", bfRequest,
					hostileBody([]byte{byte(KindIPKeySparse)}, u32b(4), over)},
				{"Cmts count over MaxEta", "exceeds server limits", bfRequest,
					hostileBody([]byte{byte(mode.bo), byte(febo.OpAdd)}, over, u16b(1))},
				{"truncated element slab", "does not fit", bfRequest,
					hostileBody([]byte{byte(mode.bo), byte(febo.OpAdd)}, u32b(2), u16b(4), []byte{1, 2, 3})},
				{"non-canonical integer", "leading zero", bfRequest,
					hostileBody([]byte{byte(KindBOKey), byte(febo.OpAdd)}, make([]byte, 8), u16b(2), []byte{0, 5})},
				{"oversize integer", "exceeds", bfRequest,
					hostileBody([]byte{byte(KindBOKey), byte(febo.OpAdd)}, make([]byte, 8), u16b(maxElemBytes+1), make([]byte, maxElemBytes+1))},
				{"non-minimal element width", "minimal", bfRequest,
					hostileBody([]byte{byte(mode.bo), byte(febo.OpAdd)}, u32b(1), u16b(uint16(len(cmt)+1)), []byte{0}, cmt, u32b(1), make([]byte, 8))},
				{"invalid FEBO op", "invalid FEBO op", bfRequest,
					hostileBody([]byte{byte(mode.bo), 0xEE}, u32b(1), u16b(uint16(len(cmt))), cmt, u32b(1), make([]byte, 8))},
				{"Cmts/Scalars mismatch", "commitments for", bfRequest,
					hostileBody([]byte{byte(mode.bo), byte(febo.OpAdd)}, u32b(1), u16b(uint16(len(cmt))), cmt, u32b(0))},
				{"unknown kind", "unknown request kind", bfRequest, []byte{0xEE}},
				{"trailing bytes", "trailing", bfRequest, []byte{byte(KindFEBOPublic), 0}},
				{"unknown frame type", "frame type", 0x7F, nil},
			}
			for i, row := range rows {
				id := uint64(i + 1)
				if err := bc.writeFrame(row.ftype, id, func(b []byte) ([]byte, error) { return append(b, row.body...), nil }); err != nil {
					t.Fatal(err)
				}
				msg, _, err := decodeErrBody(expectFrame(t, bc, bfErr, id))
				if err != nil || !strings.Contains(msg, row.want) {
					t.Errorf("%s: error reply %q (%v), want it to mention %q", row.name, msg, err, row.want)
				}
			}
			// The connection still serves a valid key request.
			id := uint64(len(rows) + 1)
			if err := bc.writeFrame(bfRequest, id, func(b []byte) ([]byte, error) { return appendRequest(b, mode.valid) }); err != nil {
				t.Fatal(err)
			}
			if kind, resp, err := decodeResponse(expectFrame(t, bc, bfResponse, id)); err != nil || kind != mode.valid.Kind || resp.K == nil && len(resp.KBatch) != 1 {
				t.Fatalf("valid request after hostile frames: %s %+v %v", kind, resp, err)
			}
			expectHelloRefused(t, addr, helloFrame(CodecVersion+1))
			st := mode.srv.Stats()
			if st.Panics != 0 || st.Rejected != mode.wantRejected {
				t.Fatalf("stats %+v: want 0 panics, %d rejections", st, mode.wantRejected)
			}
		})
	}
}

// serveAuthority runs srv on a loopback listener for the test's lifetime.
func serveAuthority(t *testing.T, srv *AuthorityServer) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(context.Background(), l)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return l.Addr().String()
}
