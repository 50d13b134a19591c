package wire

// FE-based prediction over the network (§III-D): after training, the
// server can answer prediction requests over encrypted inputs. The
// client encrypts a batch exactly as for training (the labels may be
// all-zero placeholders — only the input ciphertexts are touched), sends
// one bfPredict frame, and receives per-sample classes. If the client
// used a label map, the returned classes are masked and only the client
// can translate them — the paper's "flexible privacy setting".

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
)

// PredictFunc evaluates one encrypted batch and returns per-sample
// (label-mapped) classes; service.Server.Predict satisfies it.
type PredictFunc func(*core.EncryptedBatch) ([]int, error)

// PredictionServer answers bfPredict (and, with a top-k evaluator,
// bfPredictTopK) frames with a PredictFunc.
type PredictionServer struct {
	predict    PredictFunc
	dispatcher *Dispatcher
	log        *log.Logger
	panics     atomic.Uint64
	// Connections accepted, for /metrics.
	accepted atomic.Uint64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewPredictionServer wraps a prediction function; logger may be nil.
// Each request is evaluated as it arrives on its connection goroutine —
// use NewCoalescingPredictionServer for the throughput engine.
func NewPredictionServer(predict PredictFunc, logger *log.Logger) (*PredictionServer, error) {
	if predict == nil {
		return nil, errors.New("wire: nil predict function")
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &PredictionServer{predict: predict, log: logger, conns: make(map[net.Conn]struct{})}, nil
}

// NewCoalescingPredictionServer wraps a prediction function in the
// cross-client coalescing dispatcher: concurrent requests from any number
// of connections merge into shared evaluations (see Dispatcher), with
// queue-full backpressure reported to clients as the retryable ErrBusy.
func NewCoalescingPredictionServer(predict PredictFunc, logger *log.Logger, opts DispatcherOptions) (*PredictionServer, error) {
	s, err := NewPredictionServer(predict, logger)
	if err != nil {
		return nil, err
	}
	if s.dispatcher, err = NewDispatcher(predict, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats snapshots the coalescing dispatcher's counters; it is zero for a
// server built without coalescing.
func (s *PredictionServer) Stats() DispatcherStats {
	var st DispatcherStats
	if s.dispatcher != nil {
		st = s.dispatcher.Stats()
	}
	st.Panics += s.panics.Load()
	return st
}

// Serve accepts prediction connections until the context is cancelled or
// Close is called. Each connection may carry any number of requests.
func (s *PredictionServer) Serve(ctx context.Context, l net.Listener) error {
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
			// Serving is over (listener closed externally or broken);
			// release the dispatch loop too. Live connections have
			// drained above, so nothing can still be enqueuing.
			if s.dispatcher != nil {
				_ = s.dispatcher.Close()
			}
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

// Close stops accepting and closes live connections.
func (s *PredictionServer) Close() error {
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
	if s.dispatcher != nil {
		// Queued requests fail with net.ErrClosed; the round being
		// evaluated completes first (its callers are mid-write anyway).
		_ = s.dispatcher.Close()
	}
	return err
}

func (s *PredictionServer) handle(conn net.Conn) {
	defer func() {
		closeLogged(conn, s.log)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if err := acceptHello(conn); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.log.Printf("prediction server: negotiating with %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	s.accepted.Add(1)
	s.serveFrames(conn)
}

// maxInflightPerConn bounds concurrent evaluations spawned by one binary
// connection, so a single aggressive client cannot monopolize the
// dispatch queue. Further frames simply wait for a slot — TCP backpressure
// does the rest.
const maxInflightPerConn = 32

// serveFrames serves one negotiated connection. Prediction frames are
// multiplexed: each runs on its own goroutine (bounded by
// maxInflightPerConn) and responses go out in completion order, matched
// by request id.
func (s *PredictionServer) serveFrames(conn net.Conn) {
	bc := newBinConn(conn)
	sem := make(chan struct{}, maxInflightPerConn)
	var wg sync.WaitGroup
	defer wg.Wait() // drain in-flight evaluations before the conn closes
	for {
		ftype, id, body, err := bc.readFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("prediction server: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch ftype {
		case bfPredict:
			enc, err := decodeEncryptedBatch(body)
			if err != nil {
				if werr := bc.writeErr(id, fmt.Sprintf("decoding prediction batch: %v", err), false); werr != nil {
					s.log.Printf("prediction server: write to %s: %v", conn.RemoteAddr(), werr)
					return
				}
				continue
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(id uint64, enc *core.EncryptedBatch) {
				defer func() { <-sem; wg.Done() }()
				preds, err := s.evaluate(enc)
				var werr error
				if err != nil {
					werr = bc.writeErr(id, fmt.Sprintf("prediction failed: %v", err), errors.Is(err, ErrBusy))
				} else {
					werr = bc.writeFrame(bfPreds, id, func(b []byte) ([]byte, error) {
						return appendPreds(b, preds)
					})
				}
				if werr != nil && !errors.Is(werr, net.ErrClosed) {
					s.log.Printf("prediction server: write to %s: %v", conn.RemoteAddr(), werr)
				}
			}(id, enc)
		case bfPredictTopK:
			k, sp, err := decodeSparseBatch(body)
			if err != nil {
				if werr := bc.writeErr(id, fmt.Sprintf("decoding sparse prediction batch: %v", err), false); werr != nil {
					s.log.Printf("prediction server: write to %s: %v", conn.RemoteAddr(), werr)
					return
				}
				continue
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(id uint64, k int, sp *core.SparseBatch) {
				defer func() { <-sem; wg.Done() }()
				hits, err := s.evaluateTopK(sp, k)
				var werr error
				if err != nil {
					werr = bc.writeErr(id, fmt.Sprintf("top-k prediction failed: %v", err), errors.Is(err, ErrBusy))
				} else {
					werr = bc.writeFrame(bfTopK, id, func(b []byte) ([]byte, error) {
						return appendTopKHits(b, hits)
					})
				}
				if werr != nil && !errors.Is(werr, net.ErrClosed) {
					s.log.Printf("prediction server: write to %s: %v", conn.RemoteAddr(), werr)
				}
			}(id, k, sp)
		default:
			if err := bc.writeErr(id, fmt.Sprintf("prediction server cannot serve frame type %#x", ftype), false); err != nil {
				return
			}
		}
	}
}

// evaluate runs one decoded batch through the dispatcher (or the direct
// predict function) with panic containment: a panicking evaluation (a
// model/engine bug tripped by one request) costs that request an error
// response, not the whole serving process.
func (s *PredictionServer) evaluate(enc *core.EncryptedBatch) (preds []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("prediction server: panic evaluating batch: %v\n%s", r, debug.Stack())
			preds, err = nil, errors.New("internal error")
		}
	}()
	if enc.N <= 0 || enc.X == nil {
		return nil, errors.New("empty prediction batch")
	}
	if s.dispatcher != nil {
		// Background context: the framed request/response protocol gives
		// no way to observe a client disconnect while its request is in
		// flight, so a vanished client's request is evaluated and the
		// write error then tears the connection down. Dispatcher shutdown
		// is covered by its own done channel.
		return s.dispatcher.Do(context.Background(), enc)
	}
	return s.predict(enc)
}

// evaluateTopK runs one decoded sparse batch through the dispatcher with
// panic containment. Top-k serving requires the coalescing dispatcher
// (DispatcherOptions.TopK).
func (s *PredictionServer) evaluateTopK(sp *core.SparseBatch, k int) (hits [][]dlog.TopKHit, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("prediction server: panic evaluating sparse batch: %v\n%s", r, debug.Stack())
			hits, err = nil, errors.New("internal error")
		}
	}()
	if s.dispatcher == nil {
		return nil, errors.New("server does not serve top-k predictions")
	}
	return s.dispatcher.DoTopK(context.Background(), sp, k)
}
