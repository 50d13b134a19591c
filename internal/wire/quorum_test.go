package wire_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
	"cryptonn/internal/wire"
)

// testCluster is an N-node threshold authority cluster listening on
// loopback.
type testCluster struct {
	nodes   []*authority.Node
	servers []*wire.AuthorityServer
	addrs   []string
	cancel  context.CancelFunc
}

// lockedReader serializes a seeded math/rand source: every node of a
// cluster draws proof nonces from the cluster's one reader, and the node
// servers answer concurrently.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

func startCluster(t testing.TB, th, n int, seed int64) *testCluster {
	t.Helper()
	return startClusterBits(t, group.TestBits, th, n, seed)
}

func startClusterBits(t testing.TB, bits, th, n int, seed int64) *testCluster {
	t.Helper()
	params, err := group.Embedded(bits)
	if err != nil {
		t.Fatalf("embedded group: %v", err)
	}
	rnd := &lockedReader{r: rand.New(rand.NewSource(seed))}
	_, nodes, err := authority.NewCluster(params, authority.AllowAll(), th, n, rnd)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tc := &testCluster{nodes: nodes, cancel: cancel}
	for _, nd := range nodes {
		srv, err := wire.NewNodeServer(nd, nil, wire.AuthorityServerOptions{})
		if err != nil {
			t.Fatalf("NewNodeServer: %v", err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ctx, l) //nolint:errcheck // returns net.ErrClosed on shutdown
		tc.servers = append(tc.servers, srv)
		tc.addrs = append(tc.addrs, l.Addr().String())
	}
	t.Cleanup(tc.stop)
	return tc
}

func (tc *testCluster) stop() {
	tc.cancel()
	for _, s := range tc.servers {
		_ = s.Close()
	}
}

// dialers returns one plain dial function per node.
func (tc *testCluster) dialers() []func() (net.Conn, error) {
	out := make([]func() (net.Conn, error), len(tc.addrs))
	for i, addr := range tc.addrs {
		addr := addr
		out[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	}
	return out
}

func testSolver(t testing.TB, pk *febo.PublicKey) *dlog.Solver {
	t.Helper()
	s, err := dlog.NewSolver(pk.Params, 200)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quickOpts() wire.QuorumOptions {
	return wire.QuorumOptions{
		Timeout:     2 * time.Second,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		MaxAttempts: 3,
	}
}

// verifyIPKeys checks derived keys against the joint public key:
// g^k == Π h_i^{y_i}.
func verifyIPKeys(t *testing.T, q *wire.QuorumKeyService, ys [][]int64) {
	t.Helper()
	keys, err := q.IPKeyBatch(ys)
	if err != nil {
		t.Fatalf("IPKeyBatch: %v", err)
	}
	mpk, err := q.FEIPPublic(len(ys[0]))
	if err != nil {
		t.Fatal(err)
	}
	params := mpk.Params
	for v, fk := range keys {
		if params.PowG(fk.K).Cmp(params.MultiExpInt64(mpk.H, ys[v])) != 0 {
			t.Fatalf("key %d fails verification against the joint public key", v)
		}
	}
}

func TestQuorumDerivesVerifiedKeys(t *testing.T) {
	tc := startCluster(t, 3, 5, 1)
	q, err := wire.NewQuorumKeyService(tc.dialers(), quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	if th, n := q.Threshold(); th != 3 || n != 5 {
		t.Fatalf("Threshold() = (%d,%d)", th, n)
	}
	verifyIPKeys(t, q, [][]int64{{1, -2, 3}, {4, 0, -6}, {7, 8, 9}})

	// FEBO: the combined key must decrypt an addition correctly.
	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 21, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	fk, err := q.BOKey(ct.Cmt, febo.OpAdd, 13)
	if err != nil {
		t.Fatalf("BOKey: %v", err)
	}
	got, err := febo.Decrypt(pk, fk, ct, febo.OpAdd, 13, testSolver(t, pk))
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if got != 34 {
		t.Fatalf("21+13 decrypted to %d", got)
	}
}

func TestQuorumToleratesSlowAndDeadNodes(t *testing.T) {
	tc := startCluster(t, 3, 5, 3)
	dials := tc.dialers()
	// Node 0 wedges: each connection passes five operations (the
	// handshake's hello write and ack read, then one exchange's request
	// write and response header and body reads) and drops all traffic
	// after that. Node 1 is slow but functional.
	dials[0] = wire.FaultDialer(dials[0], wire.FaultPlan{Mode: wire.FaultDrop, AfterOps: 5})
	dials[1] = wire.FaultDialer(dials[1], wire.FaultPlan{ReadDelay: 30 * time.Millisecond, WriteDelay: 30 * time.Millisecond})

	opts := quickOpts()
	opts.Timeout = 300 * time.Millisecond
	q, err := wire.NewQuorumKeyService(dials, opts)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	verifyIPKeys(t, q, [][]int64{{5, -1, 2, 8}})

	// Now kill two servers outright (N−T = 2): requests must still
	// succeed against the remaining three.
	_ = tc.servers[3].Close()
	_ = tc.servers[4].Close()
	verifyIPKeys(t, q, [][]int64{{2, 2, 2, 2}, {-3, 1, 0, 4}})

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 6, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	fk, err := q.BOKey(ct.Cmt, febo.OpMul, 7)
	if err != nil {
		t.Fatalf("BOKey with two dead nodes: %v", err)
	}
	if got, err := febo.Decrypt(pk, fk, ct, febo.OpMul, 7, testSolver(t, pk)); err != nil || got != 42 {
		t.Fatalf("6*7 = %d, %v", got, err)
	}
}

func TestQuorumFailsBelowThreshold(t *testing.T) {
	tc := startCluster(t, 3, 3, 5)
	opts := quickOpts()
	opts.Timeout = 200 * time.Millisecond
	opts.MaxAttempts = 2
	q, err := wire.NewQuorumKeyService(tc.dialers(), opts)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	verifyIPKeys(t, q, [][]int64{{1, 2}})

	_ = tc.servers[0].Close() // T = N = 3: any loss breaks quorum
	if _, err := q.IPKeyBatch([][]int64{{1, 2}}); !errors.Is(err, wire.ErrQuorum) {
		t.Fatalf("want ErrQuorum below threshold, got %v", err)
	}
}

// corruptingNode is a malicious cluster member: it answers protocol
// requests from real share state but tampers with its partial keys.
type corruptingNode struct {
	inner *authority.Node
	srv   *wire.AuthorityServer
	l     net.Listener
}

// startRewriting replaces cluster node i with a proxy that applies an
// arbitrary rewrite to each response while forwarding everything else —
// the shape of a compromised but protocol-conformant cluster member.
func startRewriting(t *testing.T, tc *testCluster, i int, rewrite func(req *wire.Request, resp *wire.Response)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	honest := tc.addrs[i]
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				up, err := wire.Dial(honest)
				if err != nil {
					return
				}
				defer up.Close()
				_ = wire.ServeRequests(conn, wire.DefaultMaxEta, func(req *wire.Request, err error) *wire.Response {
					var resp *wire.Response
					if err == nil {
						resp, err = up.Call(context.Background(), req)
					}
					if err != nil {
						return &wire.Response{Err: err.Error()}
					}
					rewrite(req, resp)
					return resp
				})
			}(conn)
		}
	}()
	t.Cleanup(func() { _ = l.Close() })
	return l.Addr().String()
}

// startCorrupting replaces cluster node i with a proxy that flips partial
// key values while forwarding everything else.
func startCorrupting(t *testing.T, tc *testCluster, i int) string {
	t.Helper()
	// Corrupt partial keys only; leave the DLEQ proof as produced, so FEIP
	// corruption is caught by the RLC check and FEBO corruption by the
	// proof.
	return startRewriting(t, tc, i, func(req *wire.Request, resp *wire.Response) {
		if (req.Kind == wire.KindPartialIPKeyBatch || req.Kind == wire.KindPartialBOKeyBatch) && len(resp.KBatch) > 0 {
			resp.KBatch[0] = new(big.Int).Add(resp.KBatch[0], big.NewInt(1))
		}
	})
}

func TestQuorumRejectsCorruptedPartials(t *testing.T) {
	tc := startCluster(t, 3, 5, 7)
	evil := startCorrupting(t, tc, 2)
	dials := tc.dialers()
	dials[2] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }

	q, err := wire.NewQuorumKeyService(dials, quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	// Repeat so arrival-order races make the corrupted node land inside
	// the first T at least sometimes; every request must still yield keys
	// that verify against the joint public key.
	for i := 0; i < 8; i++ {
		verifyIPKeys(t, q, [][]int64{{int64(i + 1), -2, 3}, {0, int64(i), 5}})
	}

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ct, err := febo.Encrypt(pk, int64(10+i), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		fk, err := q.BOKey(ct.Cmt, febo.OpSub, 4)
		if err != nil {
			t.Fatalf("BOKey round %d: %v", i, err)
		}
		if got, err := febo.Decrypt(pk, fk, ct, febo.OpSub, 4, testSolver(t, pk)); err != nil || got != int64(6+i) {
			t.Fatalf("round %d: %d-4 = %d, %v", i, 10+i, got, err)
		}
	}
}

func TestQuorumConcurrentHammer(t *testing.T) {
	tc := startCluster(t, 3, 5, 9)
	dials := tc.dialers()
	// One flaky node to keep the retry path busy under -race.
	dials[4] = wire.FaultDialer(dials[4], wire.FaultPlan{Mode: wire.FaultReset, AfterOps: 6})
	opts := quickOpts()
	opts.Timeout = 500 * time.Millisecond
	q, err := wire.NewQuorumKeyService(dials, opts)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	solver := testSolver(t, pk)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if g%2 == 0 {
					ys := [][]int64{{int64(g), int64(i), 1}, {2, int64(g + i), -1}}
					keys, err := q.IPKeyBatch(ys)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d IPKeyBatch: %w", g, err)
						return
					}
					mpk, err := q.FEIPPublic(3)
					if err != nil {
						errc <- err
						return
					}
					for v, fk := range keys {
						if mpk.Params.PowG(fk.K).Cmp(mpk.Params.MultiExpInt64(mpk.H, ys[v])) != 0 {
							errc <- fmt.Errorf("goroutine %d: unverified key", g)
							return
						}
					}
				} else {
					ct, err := febo.Encrypt(pk, int64(i), rand.New(rand.NewSource(int64(g*10+i))))
					if err != nil {
						errc <- err
						return
					}
					fk, err := q.BOKey(ct.Cmt, febo.OpAdd, int64(g))
					if err != nil {
						errc <- fmt.Errorf("goroutine %d BOKey: %w", g, err)
						return
					}
					got, err := febo.Decrypt(pk, fk, ct, febo.OpAdd, int64(g), solver)
					if err != nil || got != int64(i+g) {
						errc <- fmt.Errorf("goroutine %d: %d+%d = %d, %v", g, i, g, got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestNodeServerRefusesWholeKeys pins the structural property: node
// servers cannot emit a complete function key.
func TestNodeServerRefusesWholeKeys(t *testing.T) {
	tc := startCluster(t, 2, 3, 11)
	cc := dialNode(t, tc.addrs[0])
	for _, kind := range []wire.MsgKind{wire.KindIPKey, wire.KindIPKeyBatch, wire.KindBOKey, wire.KindBOKeyBatch} {
		resp := call(t, cc, &wire.Request{Kind: kind, Y: []int64{1}, YBatch: [][]int64{{1}}, Cmts: []*big.Int{big.NewInt(1)}, Scalars: []int64{1}, Op: int(febo.OpAdd), Cmt: big.NewInt(1), Scalar: 1})
		if resp.Err == "" {
			t.Fatalf("node served whole-key request %s", kind)
		}
	}
}

// TestPartialProofsVerifyAgainstClusterInfo exercises the exported
// surface end to end: cluster info → DLEQ verification of one node's
// partials, as the quorum client does internally.
func TestPartialProofsVerifyAgainstClusterInfo(t *testing.T) {
	tc := startCluster(t, 2, 3, 13)
	cc := dialNode(t, tc.addrs[1])

	info := call(t, cc, &wire.Request{Kind: wire.KindClusterInfo})
	if info.Err != "" {
		t.Fatal(info.Err)
	}
	params := &group.Params{P: info.GroupP, Q: info.GroupQ, G: info.GroupG}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}

	cmts := []*big.Int{params.PowGInt64(3), params.PowGInt64(11)}
	resp := call(t, cc, &wire.Request{Kind: wire.KindPartialBOKeyBatch, Cmts: cmts, Op: int(febo.OpMul), Scalars: []int64{1, 1}})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	proof := &thresh.EqProof{C: resp.ProofC, Z: resp.ProofZ}
	if err := thresh.VerifyEqBatch(params, info.HShares[resp.NodeIndex-1], cmts, resp.KBatch, proof); err != nil {
		t.Fatalf("partial proof rejected: %v", err)
	}
	// Tampering any partial must break the proof.
	resp.KBatch[1] = params.Mul(resp.KBatch[1], params.G)
	if err := thresh.VerifyEqBatch(params, info.HShares[resp.NodeIndex-1], cmts, resp.KBatch, proof); err == nil {
		t.Fatal("tampered partial passed DLEQ verification")
	}
}

// dialNode connects to one node directly, outside the quorum client.
func dialNode(t *testing.T, addr string) *wire.ClientConn {
	t.Helper()
	cc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

// call performs one control-plane exchange, failing the test on
// transport errors (refusals come back in Response.Err).
func call(t *testing.T, cc *wire.ClientConn, req *wire.Request) *wire.Response {
	t.Helper()
	resp, err := cc.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// clusterInfoFrom queries one node's cluster-info view directly, outside
// the quorum client.
func clusterInfoFrom(t *testing.T, addr string) *wire.Response {
	t.Helper()
	info := call(t, dialNode(t, addr), &wire.Request{Kind: wire.KindClusterInfo})
	if info.Err != "" {
		t.Fatal(info.Err)
	}
	return info
}

// TestQuorumBootstrapRequiresThresholdEndorsement pins the quorum-read
// bootstrap: with T=N=3, one node serving a forged cluster view (an
// attacker-generated joint key and share commitments, all well-formed)
// leaves only two honest endorsements, so the client must refuse to start
// — whichever answer arrives first — rather than risk caching a joint key
// whose secret the attacker holds.
func TestQuorumBootstrapRequiresThresholdEndorsement(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 3, 3, 17)
	evil := startRewriting(t, tc, 0, func(req *wire.Request, resp *wire.Response) {
		if req.Kind == wire.KindClusterInfo && resp.Err == "" {
			resp.H = []*big.Int{params.PowGInt64(31337)}
			shares := make([]*big.Int, len(resp.HShares))
			for j := range shares {
				shares[j] = params.PowGInt64(int64(1000 + j))
			}
			resp.HShares = shares
		}
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := wire.NewQuorumKeyService(dials, quickOpts())
	if err == nil {
		q.Close()
		t.Fatal("bootstrap accepted a cluster view lacking threshold endorsement")
	}
	if !errors.Is(err, wire.ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
}

// TestQuorumBootstrapOutvotesForkedClusterInfo: with T=2 and N=3, the two
// honest nodes outvote one forged view regardless of arrival order, and
// the client adopts the honest joint FEBO key.
func TestQuorumBootstrapOutvotesForkedClusterInfo(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, 3, 19)
	forged := params.PowGInt64(31337)
	evil := startRewriting(t, tc, 0, func(req *wire.Request, resp *wire.Response) {
		if req.Kind == wire.KindClusterInfo && resp.Err == "" {
			resp.H = []*big.Int{forged}
		}
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := wire.NewQuorumKeyService(dials, quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()
	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	if pk.H.Cmp(forged) == 0 {
		t.Fatal("client adopted the forged joint key")
	}
	if honest := clusterInfoFrom(t, tc.addrs[1]); pk.H.Cmp(honest.H[0]) != 0 {
		t.Fatal("adopted joint key matches neither the forged nor the honest view")
	}
	verifyIPKeys(t, q, [][]int64{{1, -2, 3}})
}

// TestQuorumBootstrapSurvivesMalformedClusterInfo: a node answering
// cluster-info with zeroed group parameters must cost that node its vote
// — not panic the client — and the honest majority still bootstraps.
func TestQuorumBootstrapSurvivesMalformedClusterInfo(t *testing.T) {
	tc := startCluster(t, 2, 3, 23)
	evil := startRewriting(t, tc, 2, func(req *wire.Request, resp *wire.Response) {
		if req.Kind == wire.KindClusterInfo {
			resp.GroupP, resp.GroupQ, resp.GroupG = new(big.Int), new(big.Int), new(big.Int)
		}
	})
	dials := tc.dialers()
	dials[2] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := wire.NewQuorumKeyService(dials, quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService with one malformed responder: %v", err)
	}
	defer q.Close()
	verifyIPKeys(t, q, [][]int64{{2, 0, -5}})
}

// TestQuorumFEIPPublicOutvotesForgedKey pins the quorum read on FEIP
// master public keys: one compromised node serving a well-formed but
// attacker-generated key can never win the vote, whatever the arrival
// order; the honest nodes confirm the real key and derivation proceeds.
func TestQuorumFEIPPublicOutvotesForgedKey(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 3, 5, 29)
	evil := startRewriting(t, tc, 1, func(req *wire.Request, resp *wire.Response) {
		if req.Kind == wire.KindFEIPPublic && resp.Err == "" {
			forged := make([]*big.Int, len(resp.H))
			for i := range forged {
				forged[i] = params.PowGInt64(int64(7 + i))
			}
			resp.H = forged
		}
	})
	dials := tc.dialers()
	dials[1] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := wire.NewQuorumKeyService(dials, quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	cc := dialNode(t, tc.addrs[0])
	// Vary η so each round is a fresh (uncached) vote with its own
	// arrival order.
	for eta := 2; eta <= 5; eta++ {
		mpk, err := q.FEIPPublic(eta)
		if err != nil {
			t.Fatalf("FEIPPublic(%d): %v", eta, err)
		}
		honest := call(t, cc, &wire.Request{Kind: wire.KindFEIPPublic, Eta: eta})
		if honest.Err != "" {
			t.Fatal(honest.Err)
		}
		for i, h := range mpk.H {
			if h.Cmp(honest.H[i]) != 0 {
				t.Fatalf("η=%d: adopted key differs from the honest key at h[%d]", eta, i)
			}
		}
	}
	verifyIPKeys(t, q, [][]int64{{1, 2, 3}, {-4, 5, 0}})
}

// TestQuorumWideGroupBigIntFallback pins the big.Int scalar path: the
// word-sized fast path only covers groups whose order fits one machine
// word, so a 128-bit group must combine and verify through the generic
// arithmetic and still produce correct keys.
func TestQuorumWideGroupBigIntFallback(t *testing.T) {
	tc := startClusterBits(t, 128, 2, 3, 11)
	q, err := wire.NewQuorumKeyService(tc.dialers(), quickOpts())
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()
	verifyIPKeys(t, q, [][]int64{{5, -7, 11, 0}, {-1, 2, -3, 4}})
}
