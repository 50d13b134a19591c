package group

import (
	"math/big"
	"math/bits"
)

// Simultaneous multi-exponentiation (Straus' interleaved windowed method,
// HAC algorithm 14.88).
//
// FEIP decryption evaluates Π ct_i^{y_i}: η exponentiations sharing one
// running product. Computed naively that costs η full square-and-multiply
// ladders; interleaving shares the squarings across all bases, so the cost
// drops to max-bits squarings + one table multiplication per non-zero
// digit. The weight vectors of the CryptoNN workload make this dramatic:
// the y_i are tiny signed integers, so the shared ladder is only a few
// bits tall, while the naive path pays a full-size ladder per coordinate
// the moment a y_i is negative (negative exponents reduce mod Q into
// ~bits(Q)-bit values).
//
// Signs are handled by splitting the product: Π over positive exponents
// times the inverse of Π over |negative| exponents, which costs a single
// modular inversion instead of per-coordinate full-size exponents. The
// Montgomery-domain entry point returns the two halves unreduced so batch
// callers (securemat's decryption pipeline) can fold even that inversion
// into their per-chunk BatchInvMont.

// MultiExp computes Π bases[i]^exps[i] mod P. Exponents may be negative,
// zero, or ≥ Q; each factor agrees with Params.Exp on the same inputs
// provided the bases lie in the order-Q subgroup (true of every group
// element in this codebase — the sign split relies on base^Q = 1).
// bases and exps must have equal length (MultiExp panics otherwise, the
// same contract as a mismatched index). An empty product is 1.
//
// A small negative exponent must become (base^{-1})^{|e|} via the sign
// split, not a full-size e mod Q, so magnitudes are reduced mod Q only
// when they reach it; zero (mod Q) exponents are dropped.
func (p *Params) MultiExp(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("group: MultiExp length mismatch")
	}
	sc := MultiExpScratch{ew: (p.Q.BitLen() + 63) / 64}
	limbs := make([]uint64, sc.ew)
	var abs big.Int
	for i, e := range exps {
		if abs.Abs(e).Cmp(p.Q) >= 0 {
			abs.Mod(&abs, p.Q)
		}
		if abs.Sign() == 0 {
			continue
		}
		packLimbs(limbs, &abs)
		if e.Sign() < 0 {
			sc.negB = append(sc.negB, bases[i])
			sc.negE = append(sc.negE, limbs...)
		} else {
			sc.posB = append(sc.posB, bases[i])
			sc.posE = append(sc.posE, limbs...)
		}
	}
	return p.quotient(&sc)
}

// MultiExpScratch is worker-owned scratch for the multi-exponentiations:
// the sign-split bases and exponent magnitudes, and the Straus digit
// tables. The zero value is ready for the int64 entry points; reusing one
// across calls (the securemat decryption workers keep one each) makes the
// steady state allocation-free. A scratch must not be shared between
// goroutines.
type MultiExpScratch struct {
	posB, negB []*big.Int
	posE, negE []uint64 // magnitudes, ew little-endian limbs each
	ew         int      // limbs per magnitude
	tab        []uint64
}

// reset empties the sign split for a run of int64 exponents, keeping
// every slice's capacity.
func (sc *MultiExpScratch) reset() {
	sc.posB, sc.negB = sc.posB[:0], sc.negB[:0]
	sc.posE, sc.negE = sc.posE[:0], sc.negE[:0]
	sc.ew = 1
}

// push files (b, e) under e's sign with magnitude |e|. Zero exponents are
// dropped. The magnitude is at most 2⁶³ and is not reduced mod Q: the
// Straus ladder takes any non-negative exponent, and base^Q = 1 keeps the
// product equal to the reduced one.
func (sc *MultiExpScratch) push(b *big.Int, e int64) {
	switch {
	case e > 0:
		sc.posB = append(sc.posB, b)
		sc.posE = append(sc.posE, uint64(e))
	case e < 0:
		sc.negB = append(sc.negB, b)
		sc.negE = append(sc.negE, -uint64(e))
	}
}

// parts runs the Straus ladder over both halves of the split in sc: pos
// receives Π over positive exponents, neg Π over |negative| ones.
func (p *Params) parts(pos, neg []uint64, sc *MultiExpScratch) {
	sc.tab = p.strausProdMont(pos, sc.posB, sc.posE, sc.ew, sc.tab)
	sc.tab = p.strausProdMont(neg, sc.negB, sc.negE, sc.ew, sc.tab)
}

// quotient returns the split product pos/neg in sc as a standard-form
// element, skipping the inversion when no exponent was negative.
func (p *Params) quotient(sc *MultiExpScratch) *big.Int {
	mc := p.Mont()
	pos, neg := mc.Elem(), mc.Elem()
	p.parts(pos, neg, sc)
	if len(sc.negB) == 0 {
		return mc.FromMont(pos)
	}
	return p.Div(mc.FromMont(pos), mc.FromMont(neg))
}

// MultiExpInt64 is MultiExp for machine-integer exponents, split on the
// int64s directly so no big.Int is materialized per coordinate — FEIP
// decryption calls it once per output matrix cell. Zero exponents are
// skipped, so a mostly-zero exps (a sparse weight row against a dense
// ciphertext) only pays for its non-zero coordinates.
func (p *Params) MultiExpInt64(bases []*big.Int, exps []int64) *big.Int {
	var sc MultiExpScratch
	sc.splitDense(bases, exps)
	return p.quotient(&sc)
}

// splitDense fills sc with the non-zero pairs of a dense exponent vector,
// in order.
func (sc *MultiExpScratch) splitDense(bases []*big.Int, exps []int64) {
	if len(bases) != len(exps) {
		panic("group: MultiExp length mismatch")
	}
	sc.reset()
	for i, e := range exps {
		sc.push(bases[i], e)
	}
}

// MultiExpInt64MontParts computes the sign-split halves of Π bases[i]^exps[i]
// in the Montgomery domain: pos receives Π over positive exponents, neg the
// Π over |negative| exponents (each 1 when its partition is empty), so the
// full product is pos/neg. Both must be caller slices of Mont().Limbs()
// length. sc is the caller's reusable scratch (nil allocates a fresh one)
// — the securemat decryption workers call this once per output cell and
// keep one scratch per worker. bases and exps must have equal length
// (panics otherwise, like MultiExp).
func (p *Params) MultiExpInt64MontParts(pos, neg []uint64, bases []*big.Int, exps []int64, sc *MultiExpScratch) {
	if sc == nil {
		sc = new(MultiExpScratch)
	}
	sc.splitDense(bases, exps)
	p.parts(pos, neg, sc)
}

// MultiExpInt64Sparse computes Π bases[idx[t]]^vals[t] mod P for a sparse
// exponent vector given in coordinate form: idx holds the indices of the
// non-zero entries and vals the matching exponents. The dense equivalent is
// MultiExpInt64(bases, e) with e[idx[t]] = vals[t] and zeros elsewhere —
// the two agree exactly, but the sparse walk never touches the η−nnz zero
// coordinates, so its cost scales with nnz alone. idx and vals must have
// equal length (panics otherwise, like MultiExp); an out-of-range index
// panics like any slice access. Duplicate indices multiply both factors in,
// same as the dense path summing can't express — callers pass canonical
// (strictly increasing) supports.
func (p *Params) MultiExpInt64Sparse(bases []*big.Int, idx []int, vals []int64) *big.Int {
	var sc MultiExpScratch
	sc.splitSparse(bases, idx, vals)
	return p.quotient(&sc)
}

// MultiExpInt64SparseMontParts is the Montgomery-domain sign-split variant
// of MultiExpInt64Sparse, the sparse analogue of MultiExpInt64MontParts:
// pos/neg receive the positive and |negative| partial products, and sc is
// the caller's reusable scratch (nil allocates).
func (p *Params) MultiExpInt64SparseMontParts(pos, neg []uint64, bases []*big.Int, idx []int, vals []int64, sc *MultiExpScratch) {
	if sc == nil {
		sc = new(MultiExpScratch)
	}
	sc.splitSparse(bases, idx, vals)
	p.parts(pos, neg, sc)
}

// splitSparse is splitDense for a coordinate-form exponent vector.
func (sc *MultiExpScratch) splitSparse(bases []*big.Int, idx []int, vals []int64) {
	if len(idx) != len(vals) {
		panic("group: MultiExpSparse index/value length mismatch")
	}
	sc.reset()
	for t, i := range idx {
		sc.push(bases[i], vals[t])
	}
}

// strausProdMont computes Π bases[i]^exps[i] into dst as a Montgomery-
// domain element (1 for an empty product), by interleaved windowed
// exponentiation: one shared squaring ladder of max-bits height, with
// per-base digit tables of 2^w−1 entries. exps holds one non-negative
// magnitude of ew little-endian limbs per base.
//
// The whole ladder runs in the Montgomery domain: the digit tables are one
// flat limb slab built with MulMont, and every squaring and digit
// multiplication reduces without a division. Only the initial per-base
// ToMont touches big.Int arithmetic. scratch backs the digit tables; it is
// grown when too small and returned for reuse.
func (p *Params) strausProdMont(dst []uint64, bases []*big.Int, exps []uint64, ew int, scratch []uint64) []uint64 {
	mc := p.Mont()
	if len(bases) == 0 {
		mc.SetOne(dst)
		return scratch
	}
	maxBits := 0
	for j := range bases {
		for l := ew - 1; l >= 0; l-- {
			if e := exps[j*ew+l]; e != 0 {
				maxBits = max(maxBits, 64*l+bits.Len64(e))
				break
			}
		}
	}
	// Window width by ladder height: short ladders (tiny plaintext
	// exponents) want small tables, full-size exponents amortize w=4.
	w := 4
	switch {
	case maxBits <= 8:
		w = 2
	case maxBits <= 32:
		w = 3
	}
	k := mc.Limbs()
	rows := (1 << w) - 1
	// tab[(j·rows + d−1)·k : …+k] = bases[j]^d in Montgomery form.
	if need := len(bases) * rows * k; len(scratch) < need {
		scratch = make([]uint64, need)
	}
	tab := scratch
	for j, b := range bases {
		row := tab[j*rows*k:]
		mc.ToMont(row[:k], b)
		for d := 2; d <= rows; d++ {
			mc.MulMont(row[(d-1)*k:d*k], row[(d-2)*k:(d-1)*k], row[:k])
		}
	}
	started := false
	for i := (maxBits - 1) / w; i >= 0; i-- {
		if started {
			for s := 0; s < w; s++ {
				mc.SquareMont(dst, dst)
			}
		}
		for j := range bases {
			if d := limbDigit(exps[j*ew:(j+1)*ew], i, w); d != 0 {
				entry := tab[(j*rows+int(d)-1)*k:]
				if !started {
					copy(dst[:k], entry[:k])
					started = true
				} else {
					mc.MulMont(dst, dst, entry[:k])
				}
			}
		}
	}
	if !started {
		mc.SetOne(dst) // every digit zero: exponents were all 0 mod Q
	}
	return scratch
}

// limbDigit extracts the i-th w-bit digit of the little-endian limb
// exponent e. No digit straddles two limbs: w divides 64 (2 or 4)
// whenever an exponent is wider than 32 bits.
func limbDigit(e []uint64, i, w int) uint64 {
	off := i * w
	return e[off/64] >> uint(off%64) & (1<<uint(w) - 1)
}
