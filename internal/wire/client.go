package wire

// ClientConn is the client side of a connection: any number of requests
// may be in flight, tagged with ids, and a reader goroutine
// demultiplexes the out-of-order responses. Prediction, submission and
// control-plane key traffic (Call) all share this one framing path.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
)

// Codec names the wire codec a connection speaks. CodecBinary is the only
// one; the type stays so NewClientConn callers name it explicitly.
type Codec string

// CodecBinary is the versioned binary framing (codec.go).
const CodecBinary Codec = "binary"

// binReply is one demultiplexed binary response frame. Body is a copy —
// the read buffer is reused for the next frame.
type binReply struct {
	ftype byte
	body  []byte
	err   error
}

// ClientConn is a negotiated client connection. Safe for concurrent use;
// concurrent requests pipeline.
type ClientConn struct {
	conn    net.Conn
	bc      *binConn
	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan binReply
	readErr error

	closeOnce sync.Once
	closeErr  error
}

// Dial connects and completes the codec handshake.
func Dial(addr string) (*ClientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	cc, err := NewClientConn(conn, CodecBinary)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cc, nil
}

// NewClientConn completes the codec handshake over an established
// connection; codec must be CodecBinary. On error the connection is
// unusable and should be closed by the caller.
func NewClientConn(conn net.Conn, codec Codec) (*ClientConn, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("wire: unknown codec %q", codec)
	}
	return newClientConn(context.Background(), conn, 0)
}

// newClientConn runs the handshake bounded by timeout (zero for none) and
// ctx, then starts the reader.
func newClientConn(ctx context.Context, conn net.Conn, timeout time.Duration) (*ClientConn, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("wire: arming handshake deadline: %w", err)
		}
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	err := negotiateBinary(conn)
	if !stop() { // cancelled: the deadline is slammed whatever err says
		return nil, fmt.Errorf("wire: handshake: %w", ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("wire: disarming handshake deadline: %w", err)
	}
	cc := &ClientConn{conn: conn, bc: newBinConn(conn), pending: make(map[uint64]chan binReply)}
	go cc.readLoop()
	return cc, nil
}

// Close closes the connection; in-flight binary requests fail.
func (c *ClientConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// readLoop demultiplexes binary response frames to their callers. Any
// read error fails every pending and future request.
func (c *ClientConn) readLoop() {
	for {
		ftype, id, body, err := c.bc.readFrame()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				ch <- binReply{err: err}
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !ok {
			continue // caller gave up (cancelled); drop the late reply
		}
		cp := make([]byte, len(body))
		copy(cp, body)
		ch <- binReply{ftype: ftype, body: cp}
	}
}

// send registers a pending id and writes one request frame, bounded by
// writeBy when it is non-zero. A write that times out may have torn the
// frame, so it closes the connection.
func (c *ClientConn) send(writeBy time.Time, ftype byte, fill func([]byte) ([]byte, error)) (uint64, chan binReply, error) {
	ch := make(chan binReply, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("wire: connection failed: %w", err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	if err := c.bc.writeFrameBy(writeBy, ftype, id, fill); err != nil {
		c.forget(id)
		if IsTimeout(err) {
			_ = c.Close()
		}
		return 0, nil, err
	}
	return id, ch, nil
}

// forget abandons a pending request; a late reply is discarded.
func (c *ClientConn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// await waits for the reply or context cancellation. Cancellation
// abandons only this request — the connection and its other in-flight
// requests stay healthy.
func (c *ClientConn) await(ctx context.Context, id uint64, ch chan binReply) (binReply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case rep := <-ch:
		return rep, rep.err
	case <-ctx.Done():
		c.forget(id)
		// The reply may have been delivered between Done and forget.
		select {
		case rep := <-ch:
			return rep, rep.err
		default:
		}
		return binReply{}, ctx.Err()
	}
}

// replyErr turns a bfErr reply into a Go error (ErrBusy when retryable).
func replyErr(rep binReply, verb string) error {
	msg, retryable, err := decodeErrBody(rep.body)
	if err != nil {
		return err
	}
	if retryable {
		return fmt.Errorf("%w: server rejected %s: %s", ErrBusy, verb, msg)
	}
	return fmt.Errorf("wire: server rejected %s: %s", verb, msg)
}

// Predict submits one encrypted batch for prediction. A nil context and
// zero timeout block without bound.
func (c *ClientConn) Predict(ctx context.Context, enc *core.EncryptedBatch, timeout time.Duration) ([]int, error) {
	if timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	id, ch, err := c.send(time.Time{}, bfPredict, func(b []byte) ([]byte, error) {
		return appendEncryptedBatch(b, enc)
	})
	if err != nil {
		return nil, fmt.Errorf("wire: sending prediction request: %w", err)
	}
	rep, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, fmt.Errorf("wire: prediction exchange: %w", err)
	}
	switch rep.ftype {
	case bfPreds:
		preds, err := decodePreds(rep.body)
		if err != nil {
			return nil, err
		}
		if len(preds) != enc.N {
			return nil, fmt.Errorf("wire: %d predictions for %d samples", len(preds), enc.N)
		}
		return preds, nil
	case bfErr:
		return nil, replyErr(rep, "prediction")
	default:
		return nil, fmt.Errorf("wire: unexpected frame type %#x for prediction", rep.ftype)
	}
}

// PredictTopK submits one coordinate-form sparse batch and returns each
// sample's k largest logits as descending (label, value) pairs. A nil
// context and zero timeout block without bound.
func (c *ClientConn) PredictTopK(ctx context.Context, sp *core.SparseBatch, k int, timeout time.Duration) ([][]dlog.TopKHit, error) {
	if timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	id, ch, err := c.send(time.Time{}, bfPredictTopK, func(b []byte) ([]byte, error) {
		return appendSparseBatch(b, k, sp)
	})
	if err != nil {
		return nil, fmt.Errorf("wire: sending top-k request: %w", err)
	}
	rep, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, fmt.Errorf("wire: top-k exchange: %w", err)
	}
	switch rep.ftype {
	case bfTopK:
		hits, err := decodeTopKHits(rep.body)
		if err != nil {
			return nil, err
		}
		if len(hits) != sp.N {
			return nil, fmt.Errorf("wire: %d top-k hit lists for %d samples", len(hits), sp.N)
		}
		return hits, nil
	case bfErr:
		return nil, replyErr(rep, "top-k prediction")
	default:
		return nil, fmt.Errorf("wire: unexpected frame type %#x for top-k prediction", rep.ftype)
	}
}

// ackedCall sends one request frame and waits for its bfAck.
func (c *ClientConn) ackedCall(ftype byte, verb string, fill func([]byte) ([]byte, error)) error {
	id, ch, err := c.send(time.Time{}, ftype, fill)
	if err != nil {
		return fmt.Errorf("wire: sending %s: %w", verb, err)
	}
	rep, err := c.await(context.Background(), id, ch)
	if err != nil {
		return fmt.Errorf("wire: %s exchange: %w", verb, err)
	}
	switch rep.ftype {
	case bfAck:
		return nil
	case bfErr:
		return replyErr(rep, verb)
	default:
		return fmt.Errorf("wire: unexpected frame type %#x for %s", rep.ftype, verb)
	}
}

// SubmitBatches submits training batches followed by the done marker.
func (c *ClientConn) SubmitBatches(batches []*core.EncryptedBatch) error {
	for i, enc := range batches {
		err := c.ackedCall(bfSubmit, "batch submission", func(b []byte) ([]byte, error) {
			return appendEncryptedBatch(b, enc)
		})
		if err != nil {
			return fmt.Errorf("wire: submitting batch %d: %w", i, err)
		}
	}
	return c.done()
}

// SubmitConvBatches submits convolutional training batches followed by
// the done marker.
func (c *ClientConn) SubmitConvBatches(batches []*core.EncryptedConvBatch) error {
	for i, enc := range batches {
		err := c.ackedCall(bfSubmitConv, "conv batch submission", func(b []byte) ([]byte, error) {
			return appendConvBatch(b, enc)
		})
		if err != nil {
			return fmt.Errorf("wire: submitting conv batch %d: %w", i, err)
		}
	}
	return c.done()
}

// done sends the submission-complete marker.
func (c *ClientConn) done() error {
	return c.ackedCall(bfDone, "done marker", func(b []byte) ([]byte, error) { return b, nil })
}

// Call sends one control-plane request and waits for its answer. A
// refusal by the server comes back as a Response with Err set and a nil
// error; the error reports transport, encoding and cancellation failures.
// A ctx deadline also bounds writing the request.
func (c *ClientConn) Call(ctx context.Context, req *Request) (*Response, error) {
	return c.call(ctx, req.Kind, func(b []byte) ([]byte, error) { return appendRequest(b, req) })
}

// call is Call over a body filler, so a fan-out can encode its request
// once and replay the bytes to every node.
func (c *ClientConn) call(ctx context.Context, kind MsgKind, fill func([]byte) ([]byte, error)) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	writeBy, _ := ctx.Deadline()
	id, ch, err := c.send(writeBy, bfRequest, fill)
	if err != nil {
		return nil, fmt.Errorf("wire: sending %s: %w", kind, err)
	}
	rep, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, fmt.Errorf("wire: %s exchange: %w", kind, err)
	}
	switch rep.ftype {
	case bfResponse:
		got, resp, err := decodeResponse(rep.body)
		if err != nil {
			return nil, err
		}
		if got != kind {
			return nil, fmt.Errorf("wire: %s answer to a %s request", got, kind)
		}
		return resp, nil
	case bfErr:
		msg, _, err := decodeErrBody(rep.body)
		if err != nil {
			return nil, err
		}
		return &Response{Err: msg}, nil
	default:
		return nil, fmt.Errorf("wire: unexpected frame type %#x for %s", rep.ftype, kind)
	}
}
