package main

// Timing decorators for the traced run. Each wraps one layer's public
// entry point from the outside — the program itself carries no spans —
// and records a count and a busy time at that boundary. A decorator
// must not change what the program does: in particular the key-service
// wrapper exposes exactly the optional extensions (batch and sparse key
// derivation) of the service it wraps, because securemat picks its key
// request shape by type assertion.

import (
	"math/big"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// tracer collects the traced run's per-layer counts and times.
type tracer struct {
	keys keyLedger

	submitBytes  atomic.Int64 // bytes through the training client's conn
	requestBytes atomic.Int64 // bytes through the prediction conns

	mu    sync.Mutex
	evals []evalSpan // PredictFunc / PredictTopKFunc calls
}

func newTracer() *tracer { return &tracer{} }

// evalSpan is one prediction evaluation as the dispatcher ran it.
type evalSpan struct {
	start, end time.Time
	samples    int
}

func (t *tracer) recordEval(start time.Time, samples int) {
	end := time.Now()
	t.mu.Lock()
	t.evals = append(t.evals, evalSpan{start, end, samples})
	t.mu.Unlock()
}

// evalSpans returns the recorded evaluations in completion order.
func (t *tracer) evalSpans() []evalSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]evalSpan(nil), t.evals...)
}

// keyLedger counts calls and keys at the key-service boundary, and keeps
// the first few key requests so they can be replayed against the
// in-process authority after the measurement (replayKeys).
type keyLedger struct {
	calls        atomic.Int64
	ipKeys       atomic.Int64
	boKeys       atomic.Int64
	sparseKeys   atomic.Int64
	sparseCoords atomic.Int64 // coordinates sent in coordinate-form requests
	busyNS       atomic.Int64

	mu      sync.Mutex
	replays []keyReplay
}

// keyReplay re-issues one recorded key request against a key service and
// returns the number of keys it derived.
type keyReplay func(securemat.BatchKeyService, securemat.SparseKeyService) (int, error)

// maxReplays caps the recorded requests; the replay estimates a per-key
// cost, so a sample suffices.
const maxReplays = 512

// record keeps the replay mk builds while fewer than maxReplays are
// kept. mk copies the request's arguments: callers reuse their buffers.
func (l *keyLedger) record(mk func() keyReplay) {
	l.mu.Lock()
	if len(l.replays) < maxReplays {
		l.replays = append(l.replays, mk())
	}
	l.mu.Unlock()
}

// replayKeys re-derives the recorded requests' keys on the authority
// itself, without the network, and returns the time per key.
func (l *keyLedger) replayKeys(b securemat.BatchKeyService, s securemat.SparseKeyService) (time.Duration, error) {
	l.mu.Lock()
	replays := append([]keyReplay(nil), l.replays...)
	l.mu.Unlock()
	var keys int
	t0 := time.Now()
	for _, r := range replays {
		n, err := r(b, s)
		if err != nil {
			return 0, err
		}
		keys += n
	}
	if keys == 0 {
		return 0, nil
	}
	return time.Since(t0) / time.Duration(keys), nil
}

func (l *keyLedger) done(start time.Time) {
	l.calls.Add(1)
	l.busyNS.Add(int64(time.Since(start)))
}

// keySnapshot is a point-in-time copy of a keyLedger.
type keySnapshot struct {
	calls, ip, bo, sparse, sparseCoords int64
	busy                                time.Duration
}

func (l *keyLedger) snapshot() keySnapshot {
	return keySnapshot{
		calls:        l.calls.Load(),
		ip:           l.ipKeys.Load(),
		bo:           l.boKeys.Load(),
		sparse:       l.sparseKeys.Load(),
		sparseCoords: l.sparseCoords.Load(),
		busy:         time.Duration(l.busyNS.Load()),
	}
}

func (s keySnapshot) sub(o keySnapshot) keySnapshot {
	return keySnapshot{
		calls:        s.calls - o.calls,
		ip:           s.ip - o.ip,
		bo:           s.bo - o.bo,
		sparse:       s.sparse - o.sparse,
		sparseCoords: s.sparseCoords - o.sparseCoords,
		busy:         s.busy - o.busy,
	}
}

// traceKeys wraps ks so every call is counted and timed in l. The
// returned value implements securemat.BatchKeyService or
// securemat.SparseKeyService exactly when ks does.
func traceKeys(ks securemat.KeyService, l *keyLedger) securemat.KeyService {
	base := &tracedKeys{ks: ks, l: l}
	bks, batch := ks.(securemat.BatchKeyService)
	sks, sparse := ks.(securemat.SparseKeyService)
	switch {
	case batch && sparse:
		return &tracedBatchSparseKeys{tracedBatchKeys{base, bks}, tracedSparseKeys{base, sks}}
	case batch:
		return &tracedBatchKeys{base, bks}
	case sparse:
		return &tracedSparseKeys{base, sks}
	default:
		return base
	}
}

type tracedKeys struct {
	ks securemat.KeyService
	l  *keyLedger
}

func (t *tracedKeys) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	defer t.l.done(time.Now())
	return t.ks.FEIPPublic(eta)
}

func (t *tracedKeys) FEBOPublic() (*febo.PublicKey, error) {
	defer t.l.done(time.Now())
	return t.ks.FEBOPublic()
}

func (t *tracedKeys) IPKey(y []int64) (*feip.FunctionKey, error) {
	defer t.l.done(time.Now())
	t.l.ipKeys.Add(1)
	t.l.record(func() keyReplay {
		y := slices.Clone(y)
		return func(b securemat.BatchKeyService, _ securemat.SparseKeyService) (int, error) {
			_, err := b.IPKey(y)
			return 1, err
		}
	})
	return t.ks.IPKey(y)
}

func (t *tracedKeys) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	defer t.l.done(time.Now())
	t.l.boKeys.Add(1)
	t.l.record(func() keyReplay {
		cmt := new(big.Int).Set(cmt)
		return func(b securemat.BatchKeyService, _ securemat.SparseKeyService) (int, error) {
			_, err := b.BOKey(cmt, op, y)
			return 1, err
		}
	})
	return t.ks.BOKey(cmt, op, y)
}

type tracedBatchKeys struct {
	*tracedKeys
	bks securemat.BatchKeyService
}

func (t *tracedBatchKeys) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	defer t.l.done(time.Now())
	t.l.ipKeys.Add(int64(len(ys)))
	t.l.record(func() keyReplay {
		ys := cloneRows(ys)
		return func(b securemat.BatchKeyService, _ securemat.SparseKeyService) (int, error) {
			_, err := b.IPKeyBatch(ys)
			return len(ys), err
		}
	})
	return t.bks.IPKeyBatch(ys)
}

func (t *tracedBatchKeys) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	defer t.l.done(time.Now())
	t.l.boKeys.Add(int64(len(ys)))
	t.l.record(func() keyReplay {
		cmts, ys := slices.Clone(cmts), slices.Clone(ys)
		return func(b securemat.BatchKeyService, _ securemat.SparseKeyService) (int, error) {
			_, err := b.BOKeyBatch(cmts, op, ys)
			return len(ys), err
		}
	})
	return t.bks.BOKeyBatch(cmts, op, ys)
}

type tracedSparseKeys struct {
	*tracedKeys
	sks securemat.SparseKeyService
}

func (t *tracedSparseKeys) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	defer t.l.done(time.Now())
	t.l.sparseKeys.Add(1)
	t.l.sparseCoords.Add(int64(len(idx)))
	t.l.record(func() keyReplay {
		idx, vals := slices.Clone(idx), slices.Clone(vals)
		return func(_ securemat.BatchKeyService, s securemat.SparseKeyService) (int, error) {
			_, err := s.IPKeySparse(eta, idx, vals)
			return 1, err
		}
	})
	return t.sks.IPKeySparse(eta, idx, vals)
}

// tracedBatchSparseKeys has both extensions; the shared *tracedKeys
// methods are promoted through the batch half.
type tracedBatchSparseKeys struct {
	tracedBatchKeys
	sparse tracedSparseKeys
}

func (t *tracedBatchSparseKeys) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	return t.sparse.IPKeySparse(eta, idx, vals)
}

func cloneRows(m [][]int64) [][]int64 {
	out := make([][]int64, len(m))
	for i, r := range m {
		out[i] = slices.Clone(r)
	}
	return out
}

// countingConn counts the bytes that cross a connection in both
// directions; it is the net.Conn handed to wire.NewClientConn in the
// traced run.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
