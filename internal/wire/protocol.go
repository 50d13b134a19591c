package wire

import (
	"errors"
	"fmt"
	"math/big"

	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

// MaxFrame caps a single protocol frame; encrypted MNIST-scale batches are
// large, so the cap is generous while still bounding a hostile peer.
const MaxFrame = 1 << 30

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// MsgKind discriminates control-plane requests (key traffic with an
// authority or cluster node). It is the first byte of every bfRequest and
// bfResponse body and selects the rest of the layout (envelope.go).
type MsgKind int

// Request kinds.
const (
	KindFEIPPublic MsgKind = iota + 1
	KindFEBOPublic
	KindIPKey
	KindBOKey
	KindIPKeyBatch
	KindBOKeyBatch
	KindClusterInfo
	KindPartialIPKeyBatch
	KindPartialBOKeyBatch
	KindIPKeySparse
)

// String names the kind for errors and logs.
func (k MsgKind) String() string {
	switch k {
	case KindFEIPPublic:
		return "feip-public"
	case KindFEBOPublic:
		return "febo-public"
	case KindIPKey:
		return "ip-key"
	case KindBOKey:
		return "bo-key"
	case KindIPKeyBatch:
		return "ip-key-batch"
	case KindBOKeyBatch:
		return "bo-key-batch"
	case KindClusterInfo:
		return "cluster-info"
	case KindPartialIPKeyBatch:
		return "partial-ip-key-batch"
	case KindPartialBOKeyBatch:
		return "partial-bo-key-batch"
	case KindIPKeySparse:
		return "ip-key-sparse"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Request is the control-plane request envelope; Kind selects which fields
// are meaningful (and which travel on the wire).
type Request struct {
	Kind MsgKind
	// Eta is the FEIP dimension (KindFEIPPublic).
	Eta int
	// Y is the weight vector (KindIPKey), or the support values of a
	// coordinate-form key request (KindIPKeySparse, paired with Idx).
	Y []int64
	// Idx carries the sorted support indices of a coordinate-form key
	// request (KindIPKeySparse): the requested key is for the η-dimensional
	// vector equal to Y on Idx and zero elsewhere. Eta carries η.
	Idx []int
	// YBatch carries several weight vectors in one frame
	// (KindIPKeyBatch) — one round trip for a whole weight matrix
	// instead of one per row.
	YBatch [][]int64
	// Cmt, Op, Scalar parameterize FEBO key requests (KindBOKey).
	Cmt    *big.Int
	Op     int
	Scalar int64
	// Cmts and Scalars carry a whole matrix of FEBO key requests for one
	// operation (KindBOKeyBatch), flattened row-major and paired by
	// index. This collapses Algorithm 1's per-element key round trips —
	// the dominant protocol cost of secure element-wise computation —
	// into a single frame.
	Cmts    []*big.Int
	Scalars []int64
}

// Response is the control-plane response envelope.
type Response struct {
	// Err is non-empty on failure; other fields are then meaningless. A
	// failed response travels as a bfErr frame.
	Err string
	// Group carries group parameters for public-key responses.
	GroupP, GroupQ, GroupG *big.Int
	// H carries h_i (FEIP) or h (FEBO).
	H []*big.Int
	// K carries a derived function key.
	K *big.Int
	// KBatch carries the derived keys of a KindIPKeyBatch request — or the
	// partial keys of a partial-key batch — in request order.
	KBatch []*big.Int
	// NodeIndex, Threshold and Nodes identify the answering threshold
	// cluster node (KindClusterInfo and partial-key responses).
	NodeIndex int64
	Threshold int
	Nodes     int
	// HShares carries the cluster's FEBO public share commitments
	// A_j = g^{s^(j)}, indexed by node (KindClusterInfo). Clients verify
	// partial FEBO keys' DLEQ proofs against these.
	HShares []*big.Int
	// ProofC, ProofZ carry the batched Chaum–Pedersen proof accompanying a
	// KindPartialBOKeyBatch response.
	ProofC, ProofZ *big.Int
}

// groupFromResponse reconstructs and validates group parameters from a
// response.
func groupFromResponse(resp *Response) (*group.Params, error) {
	p := &group.Params{P: resp.GroupP, Q: resp.GroupQ, G: resp.GroupG}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wire: peer sent invalid group: %w", err)
	}
	return p, nil
}

// opFromInt validates a wire-encoded FEBO operation.
func opFromInt(v int) (febo.Op, error) {
	op := febo.Op(v)
	if !op.Valid() {
		return 0, fmt.Errorf("wire: invalid FEBO op %d", v)
	}
	return op, nil
}
