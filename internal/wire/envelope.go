package wire

// Control-plane envelope bodies: the bfRequest/bfResponse frames that
// carry key traffic between clients, servers and the authority (or a
// threshold cluster node). The first body byte is the request kind and
// selects the rest of the layout. Integers are big-endian; counts are
// u32 and share binenc.go's maxBinCount bound.
//
//	i64vec:  u32 n | n × i64 (two's complement)
//	u32vec:  u32 n | n × u32
//	elemvec: u32 n | u16 width | n × elem [width]
//	         (width = max(1, widest element), like the hot slabs)
//	bigint:  u16 len | len bytes, minimal big-endian (zero is len 0)
//	group:   bigint p | bigint q | bigint g
//
//	request = u8 kind | …
//	  feip-public                          u32 eta
//	  febo-public, cluster-info            (nothing)
//	  ip-key                               i64vec y
//	  ip-key-sparse                        u32 eta | u32vec idx | i64vec y
//	  ip-key-batch, partial-ip-key-batch   u32 rows | rows × i64vec
//	  bo-key                               u8 op | i64 scalar | bigint cmt
//	  bo-key-batch, partial-bo-key-batch   u8 op | elemvec cmts | i64vec scalars
//
//	response = u8 kind | …   (a refusal travels as bfErr instead)
//	  feip-public, febo-public             u32 node | group | elemvec h
//	  cluster-info                         u32 node | u32 threshold | u32 nodes |
//	                                       group | elemvec h | elemvec shares
//	  ip-key, ip-key-sparse, bo-key        bigint k
//	  ip-key-batch, bo-key-batch           elemvec keys
//	  partial-ip-key-batch                 u32 node | elemvec keys
//	  partial-bo-key-batch                 u32 node | elemvec keys | bigint c | bigint z
//
// Every message has exactly one encoding: decoders refuse non-minimal
// integers and element widths, so decode→encode reproduces the body.

import "math/big"

// maxElemBytes bounds one encoded integer or element width: 8192-bit
// groups, far above any embedded parameter set.
const maxElemBytes = 1024

func (w *binWriter) i64vec(vs []int64) {
	w.u32(len(vs))
	for _, v := range vs {
		w.i64(v)
	}
}

func (w *binWriter) u32vec(vs []int) {
	w.u32(len(vs))
	for _, v := range vs {
		w.u32(v)
	}
}

func (w *binWriter) bigint(v *big.Int) {
	if v == nil || v.Sign() < 0 {
		w.fail("nil or negative integer")
		return
	}
	n := (v.BitLen() + 7) / 8
	if n > maxElemBytes {
		w.fail("integer of %d bytes exceeds %d", n, maxElemBytes)
		return
	}
	w.u16(n)
	w.elems(n, v)
}

func (w *binWriter) elemvec(vs []*big.Int) {
	width := w.width(0, vs...)
	if width > maxElemBytes {
		w.fail("element width %d exceeds %d", width, maxElemBytes)
		return
	}
	w.u32(len(vs))
	w.u16(width)
	w.elems(width, vs...)
}

func (w *binWriter) group(resp *Response) {
	w.bigint(resp.GroupP)
	w.bigint(resp.GroupQ)
	w.bigint(resp.GroupG)
}

func (c *binCursor) i64vec() []int64 {
	vs := make([]int64, c.count(8))
	for i := range vs {
		vs[i] = c.i64()
	}
	return vs
}

func (c *binCursor) u32vec() []int {
	vs := make([]int, c.count(4))
	for i := range vs {
		vs[i] = c.u32()
	}
	return vs
}

func (c *binCursor) bigint() *big.Int {
	n := c.u16()
	if c.err == nil && n > maxElemBytes {
		c.failf("integer of %d bytes exceeds %d", n, maxElemBytes)
	}
	s := c.take(n)
	if c.err == nil && n > 0 && s[0] == 0 {
		c.failf("integer with leading zero byte")
	}
	if c.err != nil {
		return nil
	}
	return new(big.Int).SetBytes(s)
}

func (c *binCursor) elemvec() []*big.Int {
	n, width := c.count(1), c.u16()
	if c.err == nil && (width < 1 || width > maxElemBytes || n*width > c.rest()) {
		c.failf("element slab of %d × %d bytes does not fit", n, width)
	}
	if c.err != nil {
		return nil
	}
	vs := make([]*big.Int, n)
	widest := 0
	for i := range vs {
		vs[i] = c.big(width, &widest)
	}
	c.minimalWidth(width, widest)
	return vs
}

func (c *binCursor) group(resp *Response) {
	resp.GroupP, resp.GroupQ, resp.GroupG = c.bigint(), c.bigint(), c.bigint()
}

// appendRequest writes a bfRequest body.
func appendRequest(b []byte, req *Request) ([]byte, error) {
	w := &binWriter{b: b}
	w.u8(int(req.Kind))
	switch req.Kind {
	case KindFEIPPublic:
		w.u32(req.Eta)
	case KindFEBOPublic, KindClusterInfo:
	case KindIPKey:
		w.i64vec(req.Y)
	case KindIPKeySparse:
		w.u32(req.Eta)
		w.u32vec(req.Idx)
		w.i64vec(req.Y)
	case KindIPKeyBatch, KindPartialIPKeyBatch:
		w.u32(len(req.YBatch))
		for _, y := range req.YBatch {
			w.i64vec(y)
		}
	case KindBOKey:
		w.u8(req.Op)
		w.i64(req.Scalar)
		w.bigint(req.Cmt)
	case KindBOKeyBatch, KindPartialBOKeyBatch:
		w.u8(req.Op)
		w.elemvec(req.Cmts)
		w.i64vec(req.Scalars)
	default:
		w.fail("unknown request kind %s", req.Kind)
	}
	return w.result()
}

// decodeRequest reads a bfRequest body. Every count above limit fails
// with ErrLimitExceeded before it sizes an allocation.
func decodeRequest(body []byte, limit int) (*Request, error) {
	c := &binCursor{b: body, limit: min(limit, maxBinCount)}
	req := &Request{Kind: MsgKind(c.u8())}
	switch req.Kind {
	case KindFEIPPublic:
		req.Eta = c.u32()
	case KindFEBOPublic, KindClusterInfo:
	case KindIPKey:
		req.Y = c.i64vec()
	case KindIPKeySparse:
		req.Eta = c.u32()
		req.Idx = c.u32vec()
		req.Y = c.i64vec()
	case KindIPKeyBatch, KindPartialIPKeyBatch:
		req.YBatch = make([][]int64, c.count(4))
		for i := range req.YBatch {
			req.YBatch[i] = c.i64vec()
		}
	case KindBOKey:
		req.Op = c.u8()
		req.Scalar = c.i64()
		req.Cmt = c.bigint()
	case KindBOKeyBatch, KindPartialBOKeyBatch:
		req.Op = c.u8()
		req.Cmts = c.elemvec()
		req.Scalars = c.i64vec()
	default:
		c.failf("unknown request kind %d", int(req.Kind))
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// appendResponse writes the bfResponse body answering a request of the
// given kind. resp must not be a refusal (those travel as bfErr).
func appendResponse(b []byte, kind MsgKind, resp *Response) ([]byte, error) {
	w := &binWriter{b: b}
	w.u8(int(kind))
	switch kind {
	case KindFEIPPublic, KindFEBOPublic:
		w.u32(int(resp.NodeIndex))
		w.group(resp)
		w.elemvec(resp.H)
	case KindClusterInfo:
		w.u32(int(resp.NodeIndex))
		w.u32(resp.Threshold)
		w.u32(resp.Nodes)
		w.group(resp)
		w.elemvec(resp.H)
		w.elemvec(resp.HShares)
	case KindIPKey, KindIPKeySparse, KindBOKey:
		w.bigint(resp.K)
	case KindIPKeyBatch, KindBOKeyBatch:
		w.elemvec(resp.KBatch)
	case KindPartialIPKeyBatch:
		w.u32(int(resp.NodeIndex))
		w.elemvec(resp.KBatch)
	case KindPartialBOKeyBatch:
		w.u32(int(resp.NodeIndex))
		w.elemvec(resp.KBatch)
		w.bigint(resp.ProofC)
		w.bigint(resp.ProofZ)
	default:
		w.fail("unknown response kind %s", kind)
	}
	return w.result()
}

// decodeResponse reads a bfResponse body and the kind it answers.
func decodeResponse(body []byte) (MsgKind, *Response, error) {
	c := &binCursor{b: body}
	kind := MsgKind(c.u8())
	resp := &Response{}
	switch kind {
	case KindFEIPPublic, KindFEBOPublic:
		resp.NodeIndex = int64(c.u32())
		c.group(resp)
		resp.H = c.elemvec()
	case KindClusterInfo:
		resp.NodeIndex = int64(c.u32())
		resp.Threshold = c.u32()
		resp.Nodes = c.u32()
		c.group(resp)
		resp.H = c.elemvec()
		resp.HShares = c.elemvec()
	case KindIPKey, KindIPKeySparse, KindBOKey:
		resp.K = c.bigint()
	case KindIPKeyBatch, KindBOKeyBatch:
		resp.KBatch = c.elemvec()
	case KindPartialIPKeyBatch:
		resp.NodeIndex = int64(c.u32())
		resp.KBatch = c.elemvec()
	case KindPartialBOKeyBatch:
		resp.NodeIndex = int64(c.u32())
		resp.KBatch = c.elemvec()
		resp.ProofC = c.bigint()
		resp.ProofZ = c.bigint()
	default:
		c.failf("unknown response kind %d", int(kind))
	}
	if err := c.finish(); err != nil {
		return 0, nil, err
	}
	return kind, resp, nil
}
