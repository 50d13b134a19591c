package wire

// Binary body layouts for the hot-path frames (codec.go), and the
// reader/writer primitives every body — control-plane envelopes
// included (envelope.go) — is built from. Group elements
// are flat uint64 limb slabs internally; on the wire they become
// fixed-width big-endian byte strings with the width declared once per
// section, so a ciphertext matrix is one contiguous slab decoded by pure
// slicing — no type descriptors, no per-element length prefixes, and no
// reflection. All integers are big-endian; counts are u32, element
// widths u16.
//
//	ciphertext vector section ("ctvec"):
//	  u32 count | u32 eta | u16 elemLen |
//	  count × ( ct0 [elemLen] | eta × ct [elemLen] )
//
//	element matrix section (FEBO cells):
//	  u16 elemLen | rows·cols × ( cmt [elemLen] | ct [elemLen] )
//
//	EncryptedMatrix:
//	  u32 rows | u32 cols | u8 flags (1=rowCts, 2=elems) |
//	  ctvec colCts | [ctvec rowCts] | [element matrix]
//
//	EncryptedBatch (bfPredict, bfSubmit):
//	  u32 features | u32 classes | u32 n | u8 flags (1=X, 2=Y) |
//	  [EncryptedMatrix X] | [EncryptedMatrix Y]
//
//	EncryptedConvBatch (bfSubmitConv):
//	  u32 ×10 geometry (C,H,W,K,Stride,Pad,OutH,OutW,Classes,N) |
//	  u8 flags (1=Y) | ctvec windows (N·outH·outW, eta=C·K·K) |
//	  ctvec positions (N·C·K·K, eta=outH·outW) | [EncryptedMatrix Y]
//
//	sparse ciphertext vector section ("spctvec", coordinate form —
//	supports may differ per ciphertext, so nnz is per-entry):
//	  u32 count | u32 eta | u16 elemLen |
//	  count × ( u32 nnz | ct0 [elemLen] |
//	            nnz × ( u32 idx | ct [elemLen] ) )
//	  indices are strictly increasing and < eta; nnz ≤ eta
//
//	SparseBatch (bfPredictTopK):
//	  u32 k | u32 features | u32 classes | u32 n |
//	  spctvec colCts (count=n, eta=features)
//
//	predictions (bfPreds):
//	  u32 count | count × i32 class
//
//	top-k hits (bfTopK):
//	  u32 nSamples | nSamples × ( u32 h |
//	    h × ( u32 label | i64 value, two's complement ) )

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// ErrBinaryEncoding reports a malformed binary body.
var ErrBinaryEncoding = errors.New("wire: malformed binary frame body")

// maxBinCount bounds any single count or dimension on both sides of the
// wire: the decoder rejects hostile 4-byte headers before they trigger a
// huge allocation, and the encoder rejects the same values up front so a
// legitimate oversize payload fails fast locally instead of being
// refused by every peer.
const maxBinCount = 1 << 24

func appendU32(b []byte, v int) ([]byte, error) {
	if v < 0 || v > maxBinCount {
		return nil, fmt.Errorf("%w: value %d out of range", ErrBinaryEncoding, v)
	}
	return binary.BigEndian.AppendUint32(b, uint32(v)), nil
}

// elemWidth returns the fixed byte width needed for every element of the
// given vectors (at least 1 so zero-valued elements still occupy a slot).
func elemWidth(widest int, vals ...*big.Int) (int, error) {
	for _, v := range vals {
		if v == nil {
			return 0, fmt.Errorf("%w: nil group element", ErrBinaryEncoding)
		}
		if v.Sign() < 0 {
			return 0, fmt.Errorf("%w: negative group element", ErrBinaryEncoding)
		}
		widest = max(widest, (v.BitLen()+7)/8)
	}
	if widest > 0xffff {
		return 0, fmt.Errorf("%w: element width %d exceeds u16", ErrBinaryEncoding, widest)
	}
	return max(widest, 1), nil
}

// appendBig appends v as exactly width big-endian bytes.
func appendBig(b []byte, v *big.Int, width int) []byte {
	n := len(b)
	b = append(b, make([]byte, width)...)
	v.FillBytes(b[n : n+width])
	return b
}

// binWriter appends a body, keeping the first error.
type binWriter struct {
	b   []byte
	err error
}

func (w *binWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: "+format, append([]any{ErrBinaryEncoding}, args...)...)
	}
}

func (w *binWriter) u8(v int) {
	if v < 0 || v > 0xff {
		w.fail("value %d out of u8 range", v)
		return
	}
	w.b = append(w.b, byte(v))
}

func (w *binWriter) u16(v int) { w.b = binary.BigEndian.AppendUint16(w.b, uint16(v)) }

func (w *binWriter) u32(v int) {
	if w.err == nil {
		w.b, w.err = appendU32(w.b, v)
	}
}

func (w *binWriter) i64(v int64) { w.b = binary.BigEndian.AppendUint64(w.b, uint64(v)) }

// width widens widest to cover vals (elemWidth), keeping the first error.
func (w *binWriter) width(widest int, vals ...*big.Int) int {
	if w.err != nil {
		return widest
	}
	widest, w.err = elemWidth(widest, vals...)
	return widest
}

// elems appends each value as exactly width bytes; after an error it
// writes nothing, since a failed width check may have left nils.
func (w *binWriter) elems(width int, vals ...*big.Int) {
	if w.err != nil {
		return
	}
	for _, v := range vals {
		w.b = appendBig(w.b, v, width)
	}
}

// result returns the body, or nil and the first error.
func (w *binWriter) result() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// binCursor walks a body, keeping the first error: every read checks the
// remaining length, and reads after an error return zero values.
type binCursor struct {
	b     []byte
	off   int
	limit int // cap on envelope counts (envelope.go); 0 means maxBinCount
	err   error
}

func (c *binCursor) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrBinaryEncoding}, args...)...)
	}
}

// rest is the number of unread bytes.
func (c *binCursor) rest() int { return len(c.b) - c.off }

func (c *binCursor) take(n int) []byte {
	if c.err == nil && (n < 0 || c.rest() < n) {
		c.failf("truncated at offset %d (need %d of %d)", c.off, n, len(c.b))
	}
	if c.err != nil {
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

func (c *binCursor) u8() int {
	if s := c.take(1); s != nil {
		return int(s[0])
	}
	return 0
}

func (c *binCursor) u16() int {
	if s := c.take(2); s != nil {
		return int(binary.BigEndian.Uint16(s))
	}
	return 0
}

func (c *binCursor) u32() int {
	s := c.take(4)
	if s == nil {
		return 0
	}
	v := binary.BigEndian.Uint32(s)
	if v > maxBinCount {
		c.failf("count %d exceeds limit", v)
		return 0
	}
	return int(v)
}

func (c *binCursor) i64() int64 {
	if s := c.take(8); s != nil {
		return int64(binary.BigEndian.Uint64(s))
	}
	return 0
}

// count reads an element count and refuses, before anything is sized by
// it, one above the cursor's limit (ErrLimitExceeded) or one whose
// elements (at least size bytes each) cannot fit the rest of the body.
func (c *binCursor) count(size int) int {
	n, limit := c.u32(), maxBinCount
	if c.limit > 0 {
		limit = c.limit
	}
	switch {
	case c.err != nil:
	case n > limit:
		c.err = fmt.Errorf("%w: count %d > max %d", ErrLimitExceeded, n, limit)
	case n*size > c.rest():
		c.failf("%d elements overrun the body", n)
	}
	if c.err != nil {
		return 0
	}
	return n
}

// big reads one width-byte element and widens *widest to its minimal
// byte length, for minimalWidth.
func (c *binCursor) big(width int, widest *int) *big.Int {
	s := c.take(width)
	if s == nil {
		return nil
	}
	v := new(big.Int).SetBytes(s)
	*widest = max(*widest, (v.BitLen()+7)/8)
	return v
}

// minimalWidth enforces the encoders' width choice (the widest element,
// at least 1), so every section has exactly one encoding.
func (c *binCursor) minimalWidth(width, widest int) {
	if c.err == nil && max(widest, 1) != width {
		c.failf("element width %d, minimal is %d", width, max(widest, 1))
	}
}

// finish fails on trailing bytes and returns the first error.
func (c *binCursor) finish() error {
	if c.err == nil && c.off != len(c.b) {
		c.failf("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// --- ciphertext vector sections -------------------------------------------

// ctvec writes a ctvec section for FEIP ciphertexts sharing one dimension.
func (w *binWriter) ctvec(cts []*feip.Ciphertext, eta int) {
	width := 0
	for _, ct := range cts {
		if ct == nil || len(ct.Ct) != eta {
			w.fail("ciphertext dimension mismatch")
			return
		}
		width = w.width(width, ct.Ct0)
		width = w.width(width, ct.Ct...)
	}
	width = max(width, 1)
	w.u32(len(cts))
	w.u32(eta)
	w.u16(width)
	for _, ct := range cts {
		w.elems(width, ct.Ct0)
		w.elems(width, ct.Ct...)
	}
}

// ctvec reads a ctvec section, requiring the declared shape when
// wantCount/wantEta are non-negative.
func (c *binCursor) ctvec(wantCount, wantEta int) []*feip.Ciphertext {
	count, eta, width := c.u32(), c.u32(), c.u16()
	// The whole section must fit the remaining body before any per-count
	// allocation happens.
	need := count * (eta + 1) * width
	switch {
	case c.err != nil:
	case wantCount >= 0 && count != wantCount:
		c.failf("%d ciphertexts, want %d", count, wantCount)
	case wantEta >= 0 && eta != wantEta:
		c.failf("ciphertext dimension %d, want %d", eta, wantEta)
	case width < 1:
		c.failf("zero element width")
	case eta >= maxBinCount || count > 0 && need/count != (eta+1)*width || need > c.rest():
		c.failf("section larger than body")
	}
	if c.err != nil {
		return nil
	}
	cts := make([]*feip.Ciphertext, count)
	widest := 0
	for i := range cts {
		ct := &feip.Ciphertext{Ct0: c.big(width, &widest), Ct: make([]*big.Int, eta)}
		for j := range ct.Ct {
			ct.Ct[j] = c.big(width, &widest)
		}
		cts[i] = ct
	}
	c.minimalWidth(width, widest)
	return cts
}

// sparseCtvec writes a spctvec section for coordinate-form FEIP
// ciphertexts sharing one dimension.
func (w *binWriter) sparseCtvec(cts []*feip.SparseCiphertext, eta int) {
	width := 0
	for _, ct := range cts {
		if ct == nil || ct.Eta != eta || len(ct.Idx) != len(ct.Ct) || len(ct.Idx) > eta {
			w.fail("sparse ciphertext geometry mismatch")
			return
		}
		width = w.width(width, ct.Ct0)
		width = w.width(width, ct.Ct...)
	}
	width = max(width, 1)
	w.u32(len(cts))
	w.u32(eta)
	w.u16(width)
	for _, ct := range cts {
		w.u32(len(ct.Idx))
		w.elems(width, ct.Ct0)
		prev := -1
		for t, idx := range ct.Idx {
			if idx <= prev || idx >= eta {
				w.fail("support index %d out of order or range", idx)
				return
			}
			prev = idx
			w.u32(idx)
			w.elems(width, ct.Ct[t])
		}
	}
}

// sparseCtvec reads a spctvec section, requiring the declared shape when
// wantCount/wantEta are non-negative. Supports are validated to the
// canonical form feip.SparseCiphertext.Validate demands: strictly
// increasing, in-range indices with nnz ≤ eta — a hostile frame fails here
// with ErrBinaryEncoding instead of reaching the crypto layer.
func (c *binCursor) sparseCtvec(wantCount, wantEta int) []*feip.SparseCiphertext {
	count, eta, width := c.u32(), c.u32(), c.u16()
	// Every entry costs at least its nnz word plus ct0, so a hostile count
	// far beyond the body fails before the per-entry loop allocates.
	minNeed := count * (4 + width)
	switch {
	case c.err != nil:
	case wantCount >= 0 && count != wantCount:
		c.failf("%d sparse ciphertexts, want %d", count, wantCount)
	case wantEta >= 0 && eta != wantEta:
		c.failf("sparse ciphertext dimension %d, want %d", eta, wantEta)
	case width < 1:
		c.failf("zero element width")
	case eta < 1 || eta >= maxBinCount:
		c.failf("sparse dimension %d out of range", eta)
	case count > 0 && (minNeed/count != 4+width || minNeed > c.rest()):
		c.failf("section larger than body")
	}
	if c.err != nil {
		return nil
	}
	cts := make([]*feip.SparseCiphertext, count)
	widest := 0
	for i := range cts {
		nnz := c.u32()
		// The pair list must fit the remaining body before allocation; the
		// division re-check keeps a hostile nnz·(4+width) product exact
		// (nnz ≤ eta < 2^24 and width < 2^16, so the product cannot wrap,
		// but the check is cheap and local).
		need := nnz * (4 + width)
		switch {
		case c.err != nil:
		case nnz > eta:
			c.failf("nnz %d exceeds dimension %d", nnz, eta)
		case nnz > 0 && (need/nnz != 4+width || need > c.rest()-width):
			c.failf("sparse pair list larger than body")
		}
		if c.err != nil {
			return nil
		}
		ct := &feip.SparseCiphertext{Eta: eta, Ct0: c.big(width, &widest), Idx: make([]int, nnz), Ct: make([]*big.Int, nnz)}
		prev := -1
		for t := range nnz {
			idx := c.u32()
			if c.err == nil && (idx <= prev || idx >= eta) {
				c.failf("support index %d out of order or range at pair %d", idx, t)
			}
			if c.err != nil {
				return nil
			}
			prev = idx
			ct.Idx[t] = idx
			ct.Ct[t] = c.big(width, &widest)
		}
		cts[i] = ct
	}
	c.minimalWidth(width, widest)
	return cts
}

// --- EncryptedMatrix -------------------------------------------------------

const (
	matFlagRows  = 1
	matFlagElems = 2
)

func (w *binWriter) matrix(m *securemat.EncryptedMatrix) {
	if m == nil || m.ColCts == nil {
		w.fail("matrix without column ciphertexts")
		return
	}
	w.u32(m.Rows)
	w.u32(m.Cols)
	var flags int
	if m.RowCts != nil {
		flags |= matFlagRows
	}
	if m.Elems != nil {
		flags |= matFlagElems
	}
	w.u8(flags)
	w.ctvec(m.ColCts, m.Rows)
	if m.RowCts != nil {
		w.ctvec(m.RowCts, m.Cols)
	}
	if m.Elems == nil {
		return
	}
	if len(m.Elems) != m.Rows {
		w.fail("%d element rows for %d matrix rows", len(m.Elems), m.Rows)
		return
	}
	width := 0
	for _, row := range m.Elems {
		if len(row) != m.Cols {
			w.fail("ragged element matrix")
			return
		}
		for _, e := range row {
			if e == nil {
				w.fail("nil element ciphertext")
				return
			}
			width = w.width(width, e.Cmt, e.Ct)
		}
	}
	width = max(width, 1)
	w.u16(width)
	for _, row := range m.Elems {
		for _, e := range row {
			w.elems(width, e.Cmt, e.Ct)
		}
	}
}

func (c *binCursor) matrix() *securemat.EncryptedMatrix {
	rows, cols, flags := c.u32(), c.u32(), c.u8()
	if c.err == nil && flags&^(matFlagRows|matFlagElems) != 0 {
		c.failf("unknown matrix flags %#x", flags)
	}
	m := &securemat.EncryptedMatrix{Rows: rows, Cols: cols, ColCts: c.ctvec(cols, rows)}
	if flags&matFlagRows != 0 {
		m.RowCts = c.ctvec(rows, cols)
	}
	if flags&matFlagElems != 0 {
		width := c.u16()
		// rows > body bounds the row headers of a zero-column matrix.
		need := rows * cols * 2 * width
		switch {
		case c.err != nil:
		case width < 1:
			c.failf("zero element width")
		case rows > c.rest() || rows > 0 && cols > 0 && (need/(rows*cols) != 2*width || need > c.rest()):
			c.failf("element section larger than body")
		}
		if c.err != nil {
			return nil
		}
		m.Elems = make([][]*febo.Ciphertext, rows)
		widest := 0
		for i := range m.Elems {
			m.Elems[i] = make([]*febo.Ciphertext, cols)
			for j := range m.Elems[i] {
				m.Elems[i][j] = &febo.Ciphertext{Cmt: c.big(width, &widest), Ct: c.big(width, &widest)}
			}
		}
		c.minimalWidth(width, widest)
	}
	if c.err != nil {
		return nil
	}
	return m
}

// --- EncryptedBatch --------------------------------------------------------

const (
	batchFlagX = 1
	batchFlagY = 2
)

// appendEncryptedBatch writes the bfPredict/bfSubmit body.
func appendEncryptedBatch(b []byte, enc *core.EncryptedBatch) ([]byte, error) {
	w := &binWriter{b: b}
	if enc == nil {
		w.fail("nil batch")
		return w.result()
	}
	w.u32(enc.Features)
	w.u32(enc.Classes)
	w.u32(enc.N)
	var flags int
	if enc.X != nil {
		flags |= batchFlagX
	}
	if enc.Y != nil {
		flags |= batchFlagY
	}
	w.u8(flags)
	if enc.X != nil {
		w.matrix(enc.X)
	}
	if enc.Y != nil {
		w.matrix(enc.Y)
	}
	return w.result()
}

// decodeEncryptedBatch reads a bfPredict/bfSubmit body.
func decodeEncryptedBatch(body []byte) (*core.EncryptedBatch, error) {
	c := &binCursor{b: body}
	enc := &core.EncryptedBatch{Features: c.u32(), Classes: c.u32(), N: c.u32()}
	flags := c.u8()
	if c.err == nil && flags&^(batchFlagX|batchFlagY) != 0 {
		c.failf("unknown batch flags %#x", flags)
	}
	if flags&batchFlagX != 0 {
		enc.X = c.matrix()
	}
	if flags&batchFlagY != 0 {
		enc.Y = c.matrix()
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return enc, nil
}

// --- EncryptedConvBatch ----------------------------------------------------

// appendConvBatch writes the bfSubmitConv body.
func appendConvBatch(b []byte, enc *core.EncryptedConvBatch) ([]byte, error) {
	w := &binWriter{b: b}
	if enc == nil {
		w.fail("nil conv batch")
		return w.result()
	}
	for _, v := range []int{enc.C, enc.H, enc.W, enc.K, enc.Stride, enc.Pad, enc.OutH, enc.OutW, enc.Classes, enc.N} {
		w.u32(v)
	}
	var flags int
	if enc.Y != nil {
		flags |= batchFlagY
	}
	w.u8(flags)
	windowLen, numWindows := enc.WindowLen(), enc.NumWindows()
	if len(enc.Windows) != enc.N || len(enc.Positions) != enc.N {
		w.fail("%d/%d per-sample slices for %d samples", len(enc.Windows), len(enc.Positions), enc.N)
		return w.result()
	}
	flat := make([]*feip.Ciphertext, 0, enc.N*numWindows)
	for _, ws := range enc.Windows {
		if len(ws) != numWindows {
			w.fail("%d windows, want %d", len(ws), numWindows)
			return w.result()
		}
		flat = append(flat, ws...)
	}
	w.ctvec(flat, windowLen)
	flat = flat[:0]
	for _, ps := range enc.Positions {
		if len(ps) != windowLen {
			w.fail("%d position rows, want %d", len(ps), windowLen)
			return w.result()
		}
		flat = append(flat, ps...)
	}
	w.ctvec(flat, numWindows)
	if enc.Y != nil {
		w.matrix(enc.Y)
	}
	return w.result()
}

// mulBounded multiplies two decoded dimensions with overflow-safe
// arithmetic: both factors and the product must lie in [1, maxBinCount].
// Because each checked value is at most 2^24 the uint64 product is at
// most 2^48 and can never wrap, so chained calls stay exact no matter
// what geometry a hostile frame declares.
func (c *binCursor) mulBounded(a, b int) int {
	switch {
	case c.err != nil:
		return 0
	case a < 1 || a > maxBinCount || b < 1 || b > maxBinCount:
		c.failf("conv geometry out of range")
		return 0
	case uint64(a)*uint64(b) > maxBinCount:
		c.failf("conv geometry product %d exceeds limit", uint64(a)*uint64(b))
		return 0
	}
	return a * b
}

// decodeConvBatch reads a bfSubmitConv body. The geometry words are
// attacker-controlled, so windowLen (C·K·K) and numWindows (OutH·OutW)
// are derived via mulBounded rather than the in-memory helpers — a
// product that overflows int64 to a negative value would otherwise
// disable ctvec's shape checks and panic in the re-slicing below.
func decodeConvBatch(body []byte) (*core.EncryptedConvBatch, error) {
	c := &binCursor{b: body}
	enc := &core.EncryptedConvBatch{}
	for _, dst := range []*int{&enc.C, &enc.H, &enc.W, &enc.K, &enc.Stride, &enc.Pad, &enc.OutH, &enc.OutW, &enc.Classes, &enc.N} {
		*dst = c.u32()
	}
	flags := c.u8()
	if c.err == nil && flags&^batchFlagY != 0 {
		c.failf("unknown conv batch flags %#x", flags)
	}
	windowLen := c.mulBounded(c.mulBounded(enc.C, enc.K), enc.K)
	numWindows := c.mulBounded(enc.OutH, enc.OutW)
	totalWindows := c.mulBounded(enc.N, numWindows)
	totalPositions := c.mulBounded(enc.N, windowLen)
	if c.err != nil {
		return nil, c.err
	}
	if flat := c.ctvec(totalWindows, windowLen); flat != nil {
		enc.Windows = make([][]*feip.Ciphertext, enc.N)
		for s := range enc.Windows {
			enc.Windows[s] = flat[s*numWindows : (s+1)*numWindows]
		}
	}
	if flat := c.ctvec(totalPositions, numWindows); flat != nil {
		enc.Positions = make([][]*feip.Ciphertext, enc.N)
		for s := range enc.Positions {
			enc.Positions[s] = flat[s*windowLen : (s+1)*windowLen]
		}
	}
	if flags&batchFlagY != 0 {
		enc.Y = c.matrix()
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return enc, nil
}

// --- SparseBatch (bfPredictTopK) -------------------------------------------

// appendSparseBatch writes the bfPredictTopK body: the requested k and the
// coordinate-form batch.
func appendSparseBatch(b []byte, k int, sp *core.SparseBatch) ([]byte, error) {
	w := &binWriter{b: b}
	switch {
	case sp == nil || sp.X == nil:
		w.fail("nil sparse batch")
	case k < 1:
		w.fail("top-k count %d out of range", k)
	case sp.X.Rows != sp.Features || sp.X.Cols != sp.N:
		w.fail("sparse matrix is %dx%d, batch claims %dx%d", sp.X.Rows, sp.X.Cols, sp.Features, sp.N)
	default:
		w.u32(k)
		w.u32(sp.Features)
		w.u32(sp.Classes)
		w.u32(sp.N)
		w.sparseCtvec(sp.X.ColCts, sp.Features)
	}
	return w.result()
}

// decodeSparseBatch reads a bfPredictTopK body.
func decodeSparseBatch(body []byte) (int, *core.SparseBatch, error) {
	c := &binCursor{b: body}
	k := c.u32()
	if c.err == nil && k < 1 {
		c.failf("top-k count %d out of range", k)
	}
	sp := &core.SparseBatch{Features: c.u32(), Classes: c.u32(), N: c.u32()}
	sp.X = &securemat.SparseEncryptedMatrix{Rows: sp.Features, Cols: sp.N, ColCts: c.sparseCtvec(sp.N, sp.Features)}
	if err := c.finish(); err != nil {
		return 0, nil, err
	}
	return k, sp, nil
}

// --- top-k hits (bfTopK) ---------------------------------------------------

// appendTopKHits writes the bfTopK body: one descending hit list per
// sample.
func appendTopKHits(b []byte, hits [][]dlog.TopKHit) ([]byte, error) {
	w := &binWriter{b: b}
	w.u32(len(hits))
	for _, hs := range hits {
		w.u32(len(hs))
		for _, h := range hs {
			w.u32(h.Index)
			w.i64(h.Value)
		}
	}
	return w.result()
}

// decodeTopKHits reads a bfTopK body.
func decodeTopKHits(body []byte) ([][]dlog.TopKHit, error) {
	c := &binCursor{b: body}
	// Each sample costs at least its length word, each hit 12 bytes.
	hits := make([][]dlog.TopKHit, c.count(4))
	for i := range hits {
		hs := make([]dlog.TopKHit, c.count(12))
		for t := range hs {
			hs[t] = dlog.TopKHit{Index: c.u32(), Value: c.i64()}
		}
		hits[i] = hs
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return hits, nil
}

// --- predictions -----------------------------------------------------------

// appendPreds writes the bfPreds body.
func appendPreds(b []byte, preds []int) ([]byte, error) {
	w := &binWriter{b: b}
	w.u32(len(preds))
	for _, p := range preds {
		if p < -1<<31 || p > 1<<31-1 {
			w.fail("prediction %d out of i32 range", p)
			break
		}
		w.b = binary.BigEndian.AppendUint32(w.b, uint32(int32(p)))
	}
	return w.result()
}

// decodePreds reads a bfPreds body.
func decodePreds(body []byte) ([]int, error) {
	c := &binCursor{b: body}
	preds := make([]int, c.count(4))
	for i := range preds {
		if s := c.take(4); s != nil {
			preds[i] = int(int32(binary.BigEndian.Uint32(s)))
		}
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return preds, nil
}
