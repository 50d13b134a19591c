package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cryptonn/internal/authority"
)

// DefaultMaxEta bounds the FEIP dimension (and batch lengths) a server
// accepts from the network. FEIPPublic allocates and exponentiates η group
// elements, so an unchecked client-supplied η is an allocation DoS; the
// default admits any realistic layer width while bounding a hostile peer
// to ~megabyte-scale work.
const DefaultMaxEta = 1 << 20

// ErrLimitExceeded reports a request whose dimension or batch size exceeds
// the server's configured cap. It is permanent, not backpressure: clients
// must not retry.
var ErrLimitExceeded = errors.New("wire: request exceeds server limits")

// AuthorityServerOptions tune server-side guard rails.
type AuthorityServerOptions struct {
	// MaxEta caps the FEIP dimension η, per-request vector lengths and
	// batch element counts. Zero means DefaultMaxEta; negative disables
	// the cap.
	MaxEta int
}

func (o AuthorityServerOptions) maxEta() int {
	switch {
	case o.MaxEta == 0:
		return DefaultMaxEta
	case o.MaxEta < 0:
		return int(^uint(0) >> 1)
	default:
		return o.MaxEta
	}
}

// AuthorityServerStats counts server-side incidents.
type AuthorityServerStats struct {
	// Served is the number of requests dispatched to the key services
	// (everything that passed the limit guard, whatever its outcome).
	Served uint64
	// Panics is the number of request dispatches that panicked and were
	// recovered (the connection survived and got an error response).
	Panics uint64
	// Rejected is the number of requests refused by the MaxEta guard.
	Rejected uint64
}

// AuthorityServer exposes an authority's key services over TCP. It is the
// network face of the trusted third party in Fig. 1 — or, in node mode, of
// one member of the threshold authority cluster, serving partial keys that
// only a T-quorum can combine.
type AuthorityServer struct {
	auth   *authority.Authority // single-authority mode
	node   *authority.Node      // cluster-node mode
	log    *log.Logger
	maxEta int

	served   atomic.Uint64
	panics   atomic.Uint64
	rejected atomic.Uint64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewAuthorityServer wraps an authority with default options; logger may
// be nil for silence.
func NewAuthorityServer(auth *authority.Authority, logger *log.Logger) (*AuthorityServer, error) {
	return NewAuthorityServerOpts(auth, logger, AuthorityServerOptions{})
}

// NewAuthorityServerOpts wraps an authority; logger may be nil for silence.
func NewAuthorityServerOpts(auth *authority.Authority, logger *log.Logger, opts AuthorityServerOptions) (*AuthorityServer, error) {
	if auth == nil {
		return nil, errors.New("wire: nil authority")
	}
	return newServer(auth, nil, logger, opts), nil
}

// NewNodeServer exposes one threshold cluster node over the same protocol:
// public-key kinds answer with the cluster's joint keys, and the partial-key
// kinds serve this node's shares. Logger may be nil for silence.
func NewNodeServer(node *authority.Node, logger *log.Logger, opts AuthorityServerOptions) (*AuthorityServer, error) {
	if node == nil {
		return nil, errors.New("wire: nil cluster node")
	}
	return newServer(nil, node, logger, opts), nil
}

func newServer(auth *authority.Authority, node *authority.Node, logger *log.Logger, opts AuthorityServerOptions) *AuthorityServer {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &AuthorityServer{
		auth:   auth,
		node:   node,
		log:    logger,
		maxEta: opts.maxEta(),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Stats returns a snapshot of server incident counters.
func (s *AuthorityServer) Stats() AuthorityServerStats {
	return AuthorityServerStats{
		Served:   s.served.Load(),
		Panics:   s.panics.Load(),
		Rejected: s.rejected.Load(),
	}
}

// Serve accepts connections on l until the context is cancelled or Close
// is called, answering key requests sequentially per connection. It always
// returns a non-nil error (net.ErrClosed after a clean shutdown).
func (s *AuthorityServer) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	stop := context.AfterFunc(ctx, func() { _ = s.Close() })
	defer stop()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			closeLogged(conn, s.log)
			s.wg.Wait()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and closes every live connection.
func (s *AuthorityServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		closeLogged(c, s.log)
	}
	return err
}

func (s *AuthorityServer) handle(conn net.Conn) {
	defer func() {
		closeLogged(conn, s.log)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	err := serveRequests(conn, s.maxEta, func(req *Request, err error) *Response {
		if err != nil {
			if errors.Is(err, ErrLimitExceeded) {
				s.rejected.Add(1)
			}
			return &Response{Err: fmt.Sprintf("decoding request: %v", err)}
		}
		return s.safeDispatch(req)
	})
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.log.Printf("authority: serving %s: %v", conn.RemoteAddr(), err)
	}
}

// serveRequests runs the control-plane side of one accepted connection:
// the codec handshake, then one bfResponse (or, for a refusal, bfErr) per
// bfRequest, answered in order. answer gets each decoded request, or the
// error that stopped it decoding (counts above limit fail before they
// size an allocation); a frame of any other type is refused without
// reaching it. It returns when the connection fails or closes.
func serveRequests(conn net.Conn, limit int, answer func(*Request, error) *Response) error {
	if err := acceptHello(conn); err != nil {
		return err
	}
	bc := newBinConn(conn)
	for {
		ftype, id, body, err := bc.readFrame()
		if err != nil {
			return err
		}
		if ftype != bfRequest {
			err = bc.writeErr(id, fmt.Sprintf("wire: cannot serve frame type %#x", ftype), false)
		} else {
			req, derr := decodeRequest(body, limit)
			resp := answer(req, derr)
			if resp.Err == "" {
				err = bc.writeFrame(bfResponse, id, func(b []byte) ([]byte, error) {
					return appendResponse(b, req.Kind, resp)
				})
				if errors.Is(err, ErrBinaryEncoding) || errors.Is(err, ErrFrameTooLarge) { // nothing written
					resp.Err = fmt.Sprintf("wire: encoding %s response: %v", req.Kind, err)
				}
			}
			if resp.Err != "" {
				err = bc.writeErr(id, resp.Err, false)
			}
		}
		if err != nil {
			return err
		}
	}
}

// safeDispatch guards dispatch with the request-size limits and a panic
// recovery barrier: a panicking request (malformed input reaching an
// arithmetic edge, a bug in a key path) downs neither the connection nor
// the server — the client gets a non-retryable error response and the
// incident is counted and logged.
func (s *AuthorityServer) safeDispatch(req *Request) (resp *Response) {
	if err := s.checkLimits(req); err != nil {
		s.rejected.Add(1)
		return &Response{Err: err.Error()}
	}
	s.served.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("authority: panic serving %s: %v\n%s", req.Kind, r, debug.Stack())
			resp = &Response{Err: fmt.Sprintf("wire: internal error serving %s", req.Kind)}
		}
	}()
	return s.dispatch(req)
}

// checkLimits enforces the MaxEta cap on every client-controlled dimension
// and batch length before any allocation happens on its behalf.
func (s *AuthorityServer) checkLimits(req *Request) error {
	over := func(what string, n int) error {
		return fmt.Errorf("%w: %s %d > max %d", ErrLimitExceeded, what, n, s.maxEta)
	}
	switch req.Kind {
	case KindFEIPPublic:
		if req.Eta > s.maxEta {
			return over("η", req.Eta)
		}
	case KindIPKey:
		if len(req.Y) > s.maxEta {
			return over("|y|", len(req.Y))
		}
	case KindIPKeySparse:
		if req.Eta > s.maxEta {
			return over("η", req.Eta)
		}
		if len(req.Idx) > s.maxEta {
			return over("support size", len(req.Idx))
		}
	case KindIPKeyBatch, KindPartialIPKeyBatch:
		if len(req.YBatch) > s.maxEta {
			return over("batch size", len(req.YBatch))
		}
		for _, y := range req.YBatch {
			if len(y) > s.maxEta {
				return over("|y|", len(y))
			}
		}
	case KindBOKeyBatch, KindPartialBOKeyBatch:
		if len(req.Cmts) > s.maxEta {
			return over("batch size", len(req.Cmts))
		}
	}
	return nil
}

func (s *AuthorityServer) dispatch(req *Request) *Response {
	if s.node != nil {
		return s.dispatchNode(req)
	}
	switch req.Kind {
	case KindFEIPPublic:
		mpk, err := s.auth.FEIPPublic(req.Eta)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{
			GroupP: mpk.Params.P, GroupQ: mpk.Params.Q, GroupG: mpk.Params.G,
			H: mpk.H,
		}
	case KindFEBOPublic:
		pk, err := s.auth.FEBOPublic()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{
			GroupP: pk.Params.P, GroupQ: pk.Params.Q, GroupG: pk.Params.G,
			H: []*big.Int{pk.H},
		}
	case KindIPKey:
		fk, err := s.auth.IPKey(req.Y)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{K: fk.K}
	case KindIPKeySparse:
		fk, err := s.auth.IPKeySparse(req.Eta, req.Idx, req.Y)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{K: fk.K}
	case KindIPKeyBatch:
		if len(req.YBatch) == 0 {
			return &Response{Err: "wire: empty key batch"}
		}
		ks := make([]*big.Int, len(req.YBatch))
		for i, y := range req.YBatch {
			fk, err := s.auth.IPKey(y)
			if err != nil {
				return &Response{Err: fmt.Sprintf("vector %d: %v", i, err)}
			}
			ks[i] = fk.K
		}
		return &Response{KBatch: ks}
	case KindBOKey:
		op, err := opFromInt(req.Op)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		fk, err := s.auth.BOKey(req.Cmt, op, req.Scalar)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{K: fk.K}
	case KindBOKeyBatch:
		op, err := opFromInt(req.Op)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		if len(req.Cmts) == 0 || len(req.Cmts) != len(req.Scalars) {
			return &Response{Err: fmt.Sprintf("wire: %d commitments for %d scalars", len(req.Cmts), len(req.Scalars))}
		}
		ks := make([]*big.Int, len(req.Cmts))
		for i, cmt := range req.Cmts {
			fk, err := s.auth.BOKey(cmt, op, req.Scalars[i])
			if err != nil {
				return &Response{Err: fmt.Sprintf("element %d: %v", i, err)}
			}
			ks[i] = fk.K
		}
		return &Response{KBatch: ks}
	default:
		return &Response{Err: fmt.Sprintf("wire: authority cannot serve %s", req.Kind)}
	}
}

// dispatchNode answers requests in cluster-node mode. Public-key kinds are
// shared with single-authority mode (the joint keys are ordinary public
// keys); whole-key kinds are refused — a node structurally cannot derive
// one — and the partial-key kinds serve this node's share arithmetic.
func (s *AuthorityServer) dispatchNode(req *Request) *Response {
	nd := s.node
	switch req.Kind {
	case KindClusterInfo:
		pk, err := nd.FEBOPublic()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		shares, err := nd.FEBOSharePublics()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		p := nd.Params()
		return &Response{
			GroupP: p.P, GroupQ: p.Q, GroupG: p.G,
			H:         []*big.Int{pk.H},
			HShares:   shares,
			NodeIndex: nd.Index(),
			Threshold: nd.Threshold(),
			Nodes:     nd.ClusterSize(),
		}
	case KindFEIPPublic:
		mpk, err := nd.FEIPPublic(req.Eta)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		p := nd.Params()
		return &Response{
			GroupP: p.P, GroupQ: p.Q, GroupG: p.G,
			H: mpk.H, NodeIndex: nd.Index(),
		}
	case KindFEBOPublic:
		pk, err := nd.FEBOPublic()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		p := nd.Params()
		return &Response{
			GroupP: p.P, GroupQ: p.Q, GroupG: p.G,
			H: []*big.Int{pk.H}, NodeIndex: nd.Index(),
		}
	case KindPartialIPKeyBatch:
		if len(req.YBatch) == 0 {
			return &Response{Err: "wire: empty key batch"}
		}
		ks, err := nd.PartialIPKeyBatch(req.YBatch)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{KBatch: ks, NodeIndex: nd.Index()}
	case KindPartialBOKeyBatch:
		op, err := opFromInt(req.Op)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		if len(req.Cmts) == 0 || len(req.Cmts) != len(req.Scalars) {
			return &Response{Err: fmt.Sprintf("wire: %d commitments for %d scalars", len(req.Cmts), len(req.Scalars))}
		}
		ks, proof, err := nd.PartialBOKeyBatch(req.Cmts, op, req.Scalars)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{KBatch: ks, NodeIndex: nd.Index(), ProofC: proof.C, ProofZ: proof.Z}
	case KindIPKey, KindIPKeySparse, KindIPKeyBatch, KindBOKey, KindBOKeyBatch:
		return &Response{Err: fmt.Sprintf("wire: cluster node holds only a key share; %s requires a T-quorum", req.Kind)}
	default:
		return &Response{Err: fmt.Sprintf("wire: authority node cannot serve %s", req.Kind)}
	}
}

func closeLogged(c io.Closer, l *log.Logger) {
	if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		l.Printf("wire: close: %v", err)
	}
}
