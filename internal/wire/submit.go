package wire

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
)

// Encrypted-batch submission: the client → server data flow of Fig. 1.
// Clients push core.EncryptedBatch / core.EncryptedConvBatch frames
// (ClientConn.SubmitBatches); the training server collects them from any
// number of distributed data owners ("the model can be trained over
// multiple, distributed data sources" — §III-A) as long as all encrypted
// under the same authority.

// TrainingServer accepts encrypted batches from distributed clients. It
// only stores ciphertext batches — the training loop itself runs on top
// through the usual core.Trainer.
type TrainingServer struct {
	log    *log.Logger
	panics atomic.Uint64

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	wg          sync.WaitGroup
	closed      bool
	batches     []*core.EncryptedBatch
	convBatches []*core.EncryptedConvBatch
	done        int
	doneCh      chan struct{}
}

// NewTrainingServer creates a collector; logger may be nil.
func NewTrainingServer(logger *log.Logger) *TrainingServer {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &TrainingServer{
		log:    logger,
		conns:  make(map[net.Conn]struct{}),
		doneCh: make(chan struct{}, 1),
	}
}

// Submissions returns the number of completed client submissions (Done
// frames received).
func (s *TrainingServer) Submissions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// WaitSubmissions blocks until at least n clients have completed their
// submission, or the context is cancelled.
func (s *TrainingServer) WaitSubmissions(ctx context.Context, n int) error {
	for {
		s.mu.Lock()
		have := s.done
		s.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.doneCh:
		}
	}
}

// signalDone wakes one WaitSubmissions poller; the buffered channel
// coalesces bursts.
func (s *TrainingServer) signalDone() {
	select {
	case s.doneCh <- struct{}{}:
	default:
	}
}

// Batches returns the dense batches received so far.
func (s *TrainingServer) Batches() []*core.EncryptedBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.EncryptedBatch, len(s.batches))
	copy(out, s.batches)
	return out
}

// ConvBatches returns the convolutional batches received so far.
func (s *TrainingServer) ConvBatches() []*core.EncryptedConvBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.EncryptedConvBatch, len(s.convBatches))
	copy(out, s.convBatches)
	return out
}

// Serve accepts submissions until the context is cancelled or Close is
// called.
func (s *TrainingServer) Serve(ctx context.Context, l net.Listener) error {
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

// Close stops accepting and closes live connections.
func (s *TrainingServer) Close() error {
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

func (s *TrainingServer) handle(conn net.Conn) {
	defer func() {
		closeLogged(conn, s.log)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if err := acceptHello(conn); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.log.Printf("training server: negotiating with %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	bc := newBinConn(conn)
	for {
		ftype, id, body, err := bc.readFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("training server: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		done, werr := s.handleFrame(bc, ftype, id, body)
		if werr != nil {
			s.log.Printf("training server: write to %s: %v", conn.RemoteAddr(), werr)
			return
		}
		if done {
			return
		}
	}
}

// decodeSubmitConv is an indirection over decodeConvBatch so tests can
// inject a panicking decoder and prove handleFrame contains it.
var decodeSubmitConv = decodeConvBatch

// handleFrame serves one frame; done reports the closing bfDone.
// Submission is a serial protocol (batch, ack, …, done), so frames are
// handled inline. A panic reachable from decoding or storing a frame (a
// codec bug tripped by one client's bytes) must cost that frame an error
// response, not the whole training process: recover, count, log, keep
// the connection alive — mirroring PredictionServer.evaluate.
func (s *TrainingServer) handleFrame(bc *binConn, ftype byte, id uint64, body []byte) (done bool, werr error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("training server: panic handling frame %#x: %v\n%s", ftype, r, debug.Stack())
			done, werr = false, bc.writeErr(id, "submission failed: internal error", false)
		}
	}()
	switch ftype {
	case bfSubmit:
		b, err := decodeEncryptedBatch(body)
		switch {
		case err != nil:
			return false, bc.writeErr(id, fmt.Sprintf("decoding batch: %v", err), false)
		case b.N <= 0 || b.X == nil || b.Y == nil:
			return false, bc.writeErr(id, "empty batch", false)
		default:
			s.mu.Lock()
			s.batches = append(s.batches, b)
			s.mu.Unlock()
			return false, bc.writeEmpty(bfAck, id)
		}
	case bfSubmitConv:
		b, err := decodeSubmitConv(body)
		switch {
		case err != nil:
			return false, bc.writeErr(id, fmt.Sprintf("decoding conv batch: %v", err), false)
		case b.N <= 0 || len(b.Windows) == 0 || b.Y == nil:
			return false, bc.writeErr(id, "empty conv batch", false)
		default:
			s.mu.Lock()
			s.convBatches = append(s.convBatches, b)
			s.mu.Unlock()
			return false, bc.writeEmpty(bfAck, id)
		}
	case bfDone:
		s.mu.Lock()
		s.done++
		s.mu.Unlock()
		s.signalDone()
		return true, bc.writeEmpty(bfAck, id)
	default:
		return false, bc.writeErr(id, fmt.Sprintf("training server cannot serve frame type %#x", ftype), false)
	}
}
