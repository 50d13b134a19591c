package wire

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// KeyClientOptions tune a remote key service's I/O behaviour. The zero
// value preserves the historical semantics: block until the kernel gives
// up or the peer answers.
type KeyClientOptions struct {
	// Timeout bounds each request/response exchange. A hung or partitioned
	// authority then surfaces as a timeout error on the caller instead of a
	// goroutine wedged forever inside the client's critical section (which
	// would also wedge every other caller, since the connection serializes
	// exchanges). Zero means no deadline.
	Timeout time.Duration
	// Context, when non-nil, cancels in-flight and future exchanges: its
	// cancellation slams the connection deadline so blocked I/O returns
	// immediately, and the context error is reported to the caller.
	Context context.Context
}

// RemoteKeyService is a securemat.KeyService backed by a TCP connection to
// an AuthorityServer. It validates everything it receives (group
// parameters, group elements) and caches public keys, which are immutable
// for the lifetime of an authority.
//
// The connection carries one request at a time; concurrent callers are
// serialized. For high-throughput key traffic (the per-element FEBO
// requests of element-wise training steps) use NewKeyServicePool. Callers
// normally wrap either flavour in a securemat.Engine, whose session
// caches (public keys, per-weight-matrix function keys) sit above this
// client and keep repeated requests off the wire entirely.
type RemoteKeyService struct {
	mu   sync.Mutex
	cc   *ClientConn
	opts KeyClientOptions

	feipCache map[int]*feip.MasterPublicKey
	feboCache *febo.PublicKey
	trips     uint64
}

// DialKeyService connects to an authority at addr.
func DialKeyService(addr string) (*RemoteKeyService, error) {
	return DialKeyServiceOpts(addr, KeyClientOptions{})
}

// DialKeyServiceOpts connects to an authority at addr with I/O options;
// they bound the codec handshake as well as every later exchange.
func DialKeyServiceOpts(addr string, opts KeyClientOptions) (*RemoteKeyService, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing authority: %w", err)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cc, err := newClientConn(ctx, conn, opts.Timeout)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: connecting to authority: %w", err)
	}
	return &RemoteKeyService{cc: cc, opts: opts, feipCache: make(map[int]*feip.MasterPublicKey)}, nil
}

// Close releases the connection.
func (c *RemoteKeyService) Close() error { return c.cc.Close() }

// RoundTrips reports the number of request/response exchanges performed
// (cache hits on public keys do not count). It quantifies what key-request
// batching saves: without it, an n-element element-wise step costs n round
// trips; with it, one.
func (c *RemoteKeyService) RoundTrips() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trips
}

// roundTrip performs one request/response exchange. The connection
// serializes exchanges, so the whole exchange runs under the client
// mutex — which is exactly why the Timeout and Context bounds matter:
// without them a hung peer wedges not just this caller but every caller
// queued on the mutex behind it. An abandoned exchange's late answer is
// dropped by request id, so the connection stays usable.
func (c *RemoteKeyService) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trips++
	ctx := c.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wire: authority exchange: %w", err)
	}
	// Cancellation also unblocks a write stuck on a peer that stopped
	// reading (exchanges are serialized, so no other write is in flight).
	stop := context.AfterFunc(ctx, func() { _ = c.cc.conn.SetWriteDeadline(time.Unix(1, 0)) })
	defer stop()
	if d := c.opts.Timeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	resp, err := c.cc.Call(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("wire: authority refused %s: %s", req.Kind, resp.Err)
	}
	return resp, nil
}

// FEIPPublic implements securemat.KeyService.
func (c *RemoteKeyService) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	c.mu.Lock()
	cached, ok := c.feipCache[eta]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	resp, err := c.roundTrip(&Request{Kind: KindFEIPPublic, Eta: eta})
	if err != nil {
		return nil, err
	}
	params, err := groupFromResponse(resp)
	if err != nil {
		return nil, err
	}
	mpk := &feip.MasterPublicKey{Params: params, H: resp.H}
	if err := mpk.Validate(); err != nil {
		return nil, fmt.Errorf("wire: authority sent invalid FEIP key: %w", err)
	}
	if mpk.Eta() != eta {
		return nil, fmt.Errorf("wire: FEIP key has dimension %d, want %d", mpk.Eta(), eta)
	}
	c.mu.Lock()
	c.feipCache[eta] = mpk
	c.mu.Unlock()
	return mpk, nil
}

// FEBOPublic implements securemat.KeyService.
func (c *RemoteKeyService) FEBOPublic() (*febo.PublicKey, error) {
	c.mu.Lock()
	cached := c.feboCache
	c.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	resp, err := c.roundTrip(&Request{Kind: KindFEBOPublic})
	if err != nil {
		return nil, err
	}
	params, err := groupFromResponse(resp)
	if err != nil {
		return nil, err
	}
	if len(resp.H) != 1 {
		return nil, errors.New("wire: FEBO response must carry exactly one element")
	}
	pk := &febo.PublicKey{Params: params, H: resp.H[0]}
	if err := pk.Validate(); err != nil {
		return nil, fmt.Errorf("wire: authority sent invalid FEBO key: %w", err)
	}
	c.mu.Lock()
	c.feboCache = pk
	c.mu.Unlock()
	return pk, nil
}

// IPKey implements securemat.KeyService.
func (c *RemoteKeyService) IPKey(y []int64) (*feip.FunctionKey, error) {
	resp, err := c.roundTrip(&Request{Kind: KindIPKey, Y: y})
	if err != nil {
		return nil, err
	}
	if resp.K == nil {
		return nil, errors.New("wire: empty IP key in response")
	}
	return &feip.FunctionKey{K: resp.K}, nil
}

// IPKeySparse implements securemat.SparseKeyService: it requests the key
// for an η-dimensional vector given in coordinate form, shipping only the
// support instead of η scalars. The support the authority observes is
// whatever the caller sends — the engine's padding policy (if enabled)
// has already widened it to a size-class bucket by the time it gets here.
func (c *RemoteKeyService) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	resp, err := c.roundTrip(&Request{Kind: KindIPKeySparse, Eta: eta, Idx: idx, Y: vals})
	if err != nil {
		return nil, err
	}
	if resp.K == nil {
		return nil, errors.New("wire: empty sparse IP key in response")
	}
	return &feip.FunctionKey{K: resp.K}, nil
}

// IPKeyBatch implements securemat.BatchKeyService: it requests the keys
// for every weight vector in one round trip — the whole first-layer key
// traffic of a training iteration (k×n scalars up, k keys down, §IV-B2)
// in a single frame instead of k.
func (c *RemoteKeyService) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	if len(ys) == 0 {
		return nil, errors.New("wire: empty key batch")
	}
	resp, err := c.roundTrip(&Request{Kind: KindIPKeyBatch, YBatch: ys})
	if err != nil {
		return nil, err
	}
	if len(resp.KBatch) != len(ys) {
		return nil, fmt.Errorf("wire: %d keys for %d vectors", len(resp.KBatch), len(ys))
	}
	keys := make([]*feip.FunctionKey, len(ys))
	for i, k := range resp.KBatch {
		if k == nil {
			return nil, fmt.Errorf("wire: empty IP key %d in batch response", i)
		}
		keys[i] = &feip.FunctionKey{K: k}
	}
	return keys, nil
}

// BOKey implements securemat.KeyService.
func (c *RemoteKeyService) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	resp, err := c.roundTrip(&Request{Kind: KindBOKey, Cmt: cmt, Op: int(op), Scalar: y})
	if err != nil {
		return nil, err
	}
	if resp.K == nil {
		return nil, errors.New("wire: empty BO key in response")
	}
	return &febo.FunctionKey{K: resp.K}, nil
}

// BOKeyBatch implements securemat.BatchKeyService: one frame for a whole
// matrix of per-commitment FEBO keys — the per-element round trips behind
// the paper's Fig. 3b/4b curves collapse into a single exchange.
func (c *RemoteKeyService) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	if len(cmts) == 0 || len(cmts) != len(ys) {
		return nil, fmt.Errorf("wire: %d commitments for %d scalars", len(cmts), len(ys))
	}
	resp, err := c.roundTrip(&Request{Kind: KindBOKeyBatch, Cmts: cmts, Op: int(op), Scalars: ys})
	if err != nil {
		return nil, err
	}
	if len(resp.KBatch) != len(cmts) {
		return nil, fmt.Errorf("wire: %d keys for %d commitments", len(resp.KBatch), len(cmts))
	}
	keys := make([]*febo.FunctionKey, len(cmts))
	for i, k := range resp.KBatch {
		if k == nil {
			return nil, fmt.Errorf("wire: empty BO key %d in batch response", i)
		}
		keys[i] = &febo.FunctionKey{K: k}
	}
	return keys, nil
}

// Interface compliance check.
var _ securemat.KeyService = (*RemoteKeyService)(nil)
var _ securemat.SparseKeyService = (*RemoteKeyService)(nil)

// KeyServicePool fans key requests out over several authority
// connections, so the parallelized secure computation (many goroutines
// requesting keys) is not serialized on a single socket.
type KeyServicePool struct {
	conns []*RemoteKeyService
	next  chan int
}

// NewKeyServicePool dials n connections to addr.
func NewKeyServicePool(addr string, n int) (*KeyServicePool, error) {
	return NewKeyServicePoolOpts(addr, n, KeyClientOptions{})
}

// NewKeyServicePoolOpts dials n connections to addr, each with the given
// I/O options.
func NewKeyServicePoolOpts(addr string, n int, opts KeyClientOptions) (*KeyServicePool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: pool size must be positive, got %d", n)
	}
	p := &KeyServicePool{next: make(chan int, n)}
	for i := 0; i < n; i++ {
		c, err := DialKeyServiceOpts(addr, opts)
		if err != nil {
			closeErr := p.Close()
			if closeErr != nil {
				return nil, fmt.Errorf("wire: dialing pool member %d: %v (cleanup: %v)", i, err, closeErr)
			}
			return nil, fmt.Errorf("wire: dialing pool member %d: %w", i, err)
		}
		p.conns = append(p.conns, c)
		p.next <- i
	}
	return p, nil
}

// Close releases every pooled connection, returning the first error.
func (p *KeyServicePool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acquire checks a connection out of the pool and returns it with a
// release function.
func (p *KeyServicePool) acquire() (*RemoteKeyService, func()) {
	i := <-p.next
	return p.conns[i], func() { p.next <- i }
}

// FEIPPublic implements securemat.KeyService.
func (p *KeyServicePool) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	c, release := p.acquire()
	defer release()
	return c.FEIPPublic(eta)
}

// FEBOPublic implements securemat.KeyService.
func (p *KeyServicePool) FEBOPublic() (*febo.PublicKey, error) {
	c, release := p.acquire()
	defer release()
	return c.FEBOPublic()
}

// IPKey implements securemat.KeyService.
func (p *KeyServicePool) IPKey(y []int64) (*feip.FunctionKey, error) {
	c, release := p.acquire()
	defer release()
	return c.IPKey(y)
}

// IPKeySparse implements securemat.SparseKeyService.
func (p *KeyServicePool) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	c, release := p.acquire()
	defer release()
	return c.IPKeySparse(eta, idx, vals)
}

// IPKeyBatch implements securemat.BatchKeyService.
func (p *KeyServicePool) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	c, release := p.acquire()
	defer release()
	return c.IPKeyBatch(ys)
}

// BOKey implements securemat.KeyService.
func (p *KeyServicePool) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	c, release := p.acquire()
	defer release()
	return c.BOKey(cmt, op, y)
}

// BOKeyBatch implements securemat.BatchKeyService.
func (p *KeyServicePool) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	c, release := p.acquire()
	defer release()
	return c.BOKeyBatch(cmts, op, ys)
}

// Interface compliance checks.
var (
	_ securemat.KeyService       = (*KeyServicePool)(nil)
	_ securemat.BatchKeyService  = (*KeyServicePool)(nil)
	_ securemat.SparseKeyService = (*KeyServicePool)(nil)
	_ securemat.BatchKeyService  = (*RemoteKeyService)(nil)
)
