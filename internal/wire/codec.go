package wire

// The wire codec: one versioned binary framing for every connection.
//
//   - the client opens with an 8-byte hello (magic "CNNB" + version);
//     the server answers with an 8-byte ack (magic "CNNA" + version) and
//     both sides switch to binary frames. A server closes a connection
//     whose first bytes are not a hello for its own CodecVersion, so a
//     foreign or mismatched peer fails at connect time instead of
//     mid-stream.
//   - binary frames carry an explicit frame type and a request id, so a
//     connection can have many requests in flight (the prediction server
//     evaluates them concurrently through the coalescing dispatcher and
//     answers out of order — connection multiplexing).
//   - hot bodies (encrypted batches, predictions) are fixed-width
//     big-endian element slabs with explicit lengths (binenc.go);
//     control-plane key traffic rides bfRequest/bfResponse envelopes
//     keyed by request kind (envelope.go). No body carries type
//     descriptors or needs reflection to decode.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// codecMagic opens a client hello; codecAckMagic opens the server's ack.
var (
	codecMagic    = [4]byte{'C', 'N', 'N', 'B'}
	codecAckMagic = [4]byte{'C', 'N', 'N', 'A'}
)

// CodecVersion is the current binary wire-format version. Bump it (and
// regenerate the golden frames — see docs/PROTOCOL.md "Changing the wire
// format") on any incompatible change to the frame or body layouts.
const CodecVersion = 2

// ErrCodecRefused reports that the peer did not acknowledge the codec
// hello (a server closes a connection whose hello it cannot accept).
var ErrCodecRefused = errors.New("wire: peer refused binary codec")

// Binary frame types. Requests carry an id the matching response echoes.
const (
	// Control-plane envelopes (envelope.go layouts).
	bfRequest  = 0x01 // u8 kind + kind-specific fields
	bfResponse = 0x02 // u8 kind + kind-specific fields
	// Hot request bodies (binenc.go layouts).
	bfPredict     = 0x10 // EncryptedBatch
	bfSubmit      = 0x11 // EncryptedBatch
	bfSubmitConv  = 0x12 // EncryptedConvBatch
	bfDone        = 0x13 // empty
	bfPredictTopK = 0x14 // u32 k + coordinate-form SparseBatch
	// Hot response bodies.
	bfPreds = 0x20 // u32 count + count×i32 classes
	bfAck   = 0x21 // empty
	bfErr   = 0x22 // u8 flags (bit0 retryable) + UTF-8 message
	bfTopK  = 0x23 // per-sample (u32 label, i64 value) hit lists
)

// binHeaderLen is the fixed binary frame header: u32 body length,
// u8 frame type, u64 request id, all big-endian.
const binHeaderLen = 4 + 1 + 8

// helloFrame builds the 8-byte client hello for the given version.
func helloFrame(version uint16) [8]byte {
	var h [8]byte
	copy(h[:4], codecMagic[:])
	binary.BigEndian.PutUint16(h[4:6], version)
	return h
}

// ackFrame builds the 8-byte server acknowledgement.
func ackFrame(version uint16) [8]byte {
	var h [8]byte
	copy(h[:4], codecAckMagic[:])
	binary.BigEndian.PutUint16(h[4:6], version)
	return h
}

// binConn is the per-connection codec state: one reusable read buffer,
// one reusable write buffer, and a write mutex so response frames from
// concurrent request handlers interleave whole. It persists for the
// connection's lifetime — buffers grow to the workload's frame size once
// and are reused for every subsequent frame.
type binConn struct {
	conn net.Conn
	rbuf []byte

	wmu  sync.Mutex
	wbuf []byte
}

func newBinConn(conn net.Conn) *binConn { return &binConn{conn: conn} }

// readFrame reads one binary frame. The returned body aliases the
// connection's reusable buffer and is valid only until the next
// readFrame call; decode (which copies what it keeps) before reading on.
func (c *binConn) readFrame() (ftype byte, id uint64, body []byte, err error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return 0, 0, nil, err // io.EOF passes through for clean close detection
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if uint64(n) > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	ftype = hdr[4]
	id = binary.BigEndian.Uint64(hdr[5:13])
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	body = c.rbuf[:n]
	if _, err := io.ReadFull(c.conn, body); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return ftype, id, body, nil
}

// writeFrame writes one binary frame whose body is produced by fill
// appending to the reusable write buffer. The whole frame goes out in a
// single Write so concurrent writers never interleave partial frames.
func (c *binConn) writeFrame(ftype byte, id uint64, fill func([]byte) ([]byte, error)) error {
	return c.writeFrameBy(time.Time{}, ftype, id, fill)
}

// writeFrameBy is writeFrame bounded by a write deadline (zero for none),
// armed and cleared under the write lock so it bounds only this frame.
func (c *binConn) writeFrameBy(deadline time.Time, ftype byte, id uint64, fill func([]byte) ([]byte, error)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	if cap(buf) < binHeaderLen {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:binHeaderLen]
	var err error
	if buf, err = fill(buf); err != nil {
		return err
	}
	body := len(buf) - binHeaderLen
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	buf[4] = ftype
	binary.BigEndian.PutUint64(buf[5:13], id)
	c.wbuf = buf
	if !deadline.IsZero() {
		if err := c.conn.SetWriteDeadline(deadline); err != nil {
			return fmt.Errorf("wire: arming write deadline: %w", err)
		}
		defer c.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck // disarm is best-effort
	}
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// writeEmpty writes a bodyless frame (bfDone, bfAck).
func (c *binConn) writeEmpty(ftype byte, id uint64) error {
	return c.writeFrame(ftype, id, func(b []byte) ([]byte, error) { return b, nil })
}

// writeErr writes a bfErr frame.
func (c *binConn) writeErr(id uint64, msg string, retryable bool) error {
	return c.writeFrame(bfErr, id, func(b []byte) ([]byte, error) {
		var flags byte
		if retryable {
			flags |= 1
		}
		b = append(b, flags)
		return append(b, msg...), nil
	})
}

// decodeErrBody unpacks a bfErr body.
func decodeErrBody(body []byte) (msg string, retryable bool, err error) {
	if len(body) < 1 || body[0]&^1 != 0 {
		return "", false, fmt.Errorf("%w: bad error frame flags", ErrBinaryEncoding)
	}
	return string(body[1:]), body[0]&1 != 0, nil
}

// acceptHello completes the server side of the handshake on a
// just-accepted connection: it reads the client hello and acks it, or
// fails — and the caller closes — on anything but a hello for
// CodecVersion.
func acceptHello(conn net.Conn) error {
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	if [4]byte(hdr[:4]) != codecMagic {
		return errors.New("wire: peer did not open with the codec hello")
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != CodecVersion {
		return fmt.Errorf("wire: unsupported codec version %d", v)
	}
	ack := ackFrame(CodecVersion)
	if _, err := conn.Write(ack[:]); err != nil {
		return fmt.Errorf("wire: writing codec ack: %w", err)
	}
	return nil
}

// negotiateBinary sends the client hello and waits for the server ack.
// A server that cannot accept the hello closes the connection instead,
// surfaced as ErrCodecRefused.
func negotiateBinary(conn net.Conn) error {
	hello := helloFrame(CodecVersion)
	if _, err := conn.Write(hello[:]); err != nil {
		return fmt.Errorf("wire: writing codec hello: %w", err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrCodecRefused, err)
	}
	if [4]byte(ack[:4]) != codecAckMagic {
		return ErrCodecRefused
	}
	if v := binary.BigEndian.Uint16(ack[4:6]); v != CodecVersion {
		return fmt.Errorf("%w: server speaks version %d, client %d", ErrCodecRefused, v, CodecVersion)
	}
	return nil
}
