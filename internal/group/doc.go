// Package group implements the prime-order DDH group underlying both
// functional encryption schemes used by CryptoNN (FEIP and FEBO) — every
// exponentiation Algorithm 1 performs, on either side of the protocol,
// bottoms out here.
//
// The concrete instantiation is a Schnorr group: the subgroup of prime
// order Q of the multiplicative group Z*_P, where P = 2Q + 1 is a safe
// prime. The DDH assumption is believed to hold in this subgroup, which is
// exactly the setting required by Abdalla et al.'s inner-product scheme
// (PKC 2015) and by the paper's FEBO construction (§III-B).
//
// All arithmetic is big-integer modular arithmetic from math/big; no
// external libraries are used. Exponents are always reduced modulo the
// group order Q, and negative exponents are supported via modular
// inversion, which the neural-network workload needs (weights and
// activations are signed fixed-point integers).
//
// # Exponentiation engine
//
// Beyond the generic Exp, the package provides two accelerated paths that
// together cover nearly every exponentiation in the CryptoNN pipeline:
//
//   - FixedBaseTable (fixedbase.go): signed-window precomputation for a
//     base that is reused — the generator g, the h_i of an FEIP master
//     public key, the FEBO/ElGamal public key h — stored as flat
//     Montgomery limb slabs, so every table multiplication is a raw CIOS
//     limb product with no division. Pow costs about ⌈bits(Q)/w⌉
//     multiplications and no squarings; a dense ±k cache serves the tiny
//     plaintext exponents g^{x_i} with a single lookup; PowMont,
//     PowInt64Mont and Recode/PowRecoded keep whole call chains in the
//     Montgomery domain. Params lazily caches a table for its own
//     generator (GTable), built once under a sync.Once and shared by
//     every goroutine; PowG and PowGInt64 use it transparently.
//   - MultiExp / MultiExpInt64 (multiexp.go): Straus interleaved windowed
//     multi-exponentiation for Π bases[i]^{e_i} with one shared squaring
//     ladder, used by FEIP decryption where the naive path pays a full
//     ladder per coordinate; MultiExpInt64MontParts exposes the
//     sign-split halves in-domain for the batched decryption pipeline,
//     splitting signs on the int64 exponents into a worker-owned
//     MultiExpScratch so a cell allocates nothing.
//
// # Concurrency contract
//
// Tables are immutable once built, results are freshly allocated, and
// the lazy per-Params generator table and Montgomery context are built
// exactly once — Params remains safe for concurrent use, exactly like
// dlog.Solver. The mutable scratch types (ExpMontScratch,
// MultiExpScratch, the QuoRem scratch in dlog) are single-goroutine and owned by their calling
// worker. Every accelerated path is property-tested against the naive
// Exp (fixedbase_test.go, multiexp_test.go).
package group
