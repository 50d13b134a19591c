package group_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// naiveProduct is the reference: Π Exp(base_i, e_i) computed one
// exponentiation at a time, exactly as feip.DecryptGroupElement did before
// the multi-exponentiation engine.
func naiveProduct(p *group.Params, bases, exps []*big.Int) *big.Int {
	acc := big.NewInt(1)
	for i := range bases {
		acc = p.Mul(acc, p.Exp(bases[i], exps[i]))
	}
	return acc
}

func randomBases(p *group.Params, rng *rand.Rand, n int) []*big.Int {
	bases := make([]*big.Int, n)
	for i := range bases {
		bases[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
	}
	return bases
}

func TestMultiExpMatchesNaiveProduct(t *testing.T) {
	for _, bits := range []int{64, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			params, err := group.Embedded(bits)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for trial := 0; trial < 30; trial++ {
				n := 1 + rng.Intn(12)
				bases := randomBases(params, rng, n)
				exps := make([]*big.Int, n)
				for i := range exps {
					switch trial % 4 {
					case 0: // tiny signed (the FE weight-vector case)
						exps[i] = big.NewInt(rng.Int63n(21) - 10)
					case 1: // full-size
						exps[i] = new(big.Int).Rand(rng, params.Q)
					case 2: // signed full-size and ≥ Q
						e := new(big.Int).Rand(rng, params.Q)
						e.Add(e, params.Q)
						if rng.Intn(2) == 0 {
							e.Neg(e)
						}
						exps[i] = e
					default: // mixed with zeros
						if rng.Intn(3) == 0 {
							exps[i] = big.NewInt(0)
						} else {
							exps[i] = big.NewInt(rng.Int63n(2001) - 1000)
						}
					}
				}
				want := naiveProduct(params, bases, exps)
				if got := params.MultiExp(bases, exps); got.Cmp(want) != 0 {
					t.Fatalf("trial %d: MultiExp mismatch: got %v want %v", trial, got, want)
				}
			}
		})
	}
}

func TestMultiExpEdgeCases(t *testing.T) {
	params := group.TestParams()
	rng := rand.New(rand.NewSource(42))

	if got := params.MultiExp(nil, nil); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty product = %v, want 1", got)
	}
	bases := randomBases(params, rng, 3)
	zeros := []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(0)}
	if got := params.MultiExp(bases, zeros); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("all-zero exponents = %v, want 1", got)
	}
	// Exponents that are multiples of Q reduce to the identity.
	qMults := []*big.Int{
		new(big.Int).Set(params.Q),
		new(big.Int).Neg(params.Q),
		new(big.Int).Lsh(params.Q, 2),
	}
	if got := params.MultiExp(bases, qMults); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("Q-multiple exponents = %v, want 1", got)
	}
	// Single pair degenerates to Exp.
	e := big.NewInt(-987654321)
	want := params.Exp(bases[0], e)
	if got := params.MultiExp(bases[:1], []*big.Int{e}); got.Cmp(want) != 0 {
		t.Fatalf("single-pair MultiExp = %v, want %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	params.MultiExp(bases, zeros[:2])
}

func TestMultiExpInt64MatchesMultiExp(t *testing.T) {
	params := group.TestParams()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		bases := randomBases(params, rng, n)
		exps64 := make([]int64, n)
		exps := make([]*big.Int, n)
		for i := range exps64 {
			exps64[i] = rng.Int63() - rng.Int63() // full signed int64 range
			if rng.Intn(4) == 0 {
				exps64[i] = rng.Int63n(21) - 10
			}
			exps[i] = big.NewInt(exps64[i])
		}
		want := naiveProduct(params, bases, exps)
		if got := params.MultiExpInt64(bases, exps64); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExpInt64 mismatch", trial)
		}
	}
	// The extremes of int64: |MinInt64| = 2⁶³ only fits the unsigned
	// magnitude, and neither end is reduced mod Q before the ladder.
	bases := randomBases(params, rng, 3)
	for _, e := range []int64{math.MinInt64, math.MaxInt64, -1} {
		want := params.Exp(bases[1], big.NewInt(e))
		if got := params.MultiExpInt64(bases, []int64{0, e, 0}); got.Cmp(want) != 0 {
			t.Fatalf("MultiExpInt64 exponent %d: got %v want %v", e, got, want)
		}
	}
}

// sparseCase materializes a coordinate-form sparse vector plus its dense
// equivalent so sparse entry points can be pinned exactly against dense ones.
func sparseCase(rng *rand.Rand, n int, density float64) (idx []int, vals []int64, dense []int64) {
	dense = make([]int64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v := rng.Int63n(2001) - 1000
			if v == 0 {
				v = 1
			}
			dense[i] = v
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}
	return idx, vals, dense
}

// TestMultiExpSparseMatchesDense pins the sparse coordinate-form entry
// points value-exact (and, for the Mont variant, limb-exact) against the
// dense walk across the density spectrum on both embedded group widths.
func TestMultiExpSparseMatchesDense(t *testing.T) {
	for _, bits := range []int{64, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			params, err := group.Embedded(bits)
			if err != nil {
				t.Fatal(err)
			}
			mc := params.Mont()
			k := mc.Limbs()
			rng := rand.New(rand.NewSource(int64(bits) + 9))
			pos := make([]uint64, k)
			neg := make([]uint64, k)
			dPos := make([]uint64, k)
			dNeg := make([]uint64, k)
			var sc group.MultiExpScratch
			for _, density := range []float64{0, 0.01, 0.5, 1} {
				for trial := 0; trial < 8; trial++ {
					n := 1 + rng.Intn(200)
					bases := randomBases(params, rng, n)
					idx, vals, dense := sparseCase(rng, n, density)
					want := params.MultiExpInt64(bases, dense)
					if got := params.MultiExpInt64Sparse(bases, idx, vals); got.Cmp(want) != 0 {
						t.Fatalf("density=%g trial %d: sparse %v want %v", density, trial, got, want)
					}
					params.MultiExpInt64SparseMontParts(pos, neg, bases, idx, vals, &sc)
					params.MultiExpInt64MontParts(dPos, dNeg, bases, dense, &sc)
					for i := 0; i < k; i++ {
						if pos[i] != dPos[i] || neg[i] != dNeg[i] {
							t.Fatalf("density=%g trial %d: Mont parts diverge at limb %d", density, trial, i)
						}
					}
				}
			}
			// Single nonzero degenerates to one Exp; negative entry takes
			// the sign-split inverse path.
			bases := randomBases(params, rng, 50)
			for _, v := range []int64{7, -7} {
				want := params.Exp(bases[31], big.NewInt(v))
				if got := params.MultiExpInt64Sparse(bases, []int{31}, []int64{v}); got.Cmp(want) != 0 {
					t.Fatalf("single nonzero %d: got %v want %v", v, got, want)
				}
			}
			// Explicit zeros inside the coordinate form are dropped.
			want := params.Exp(bases[3], big.NewInt(5))
			if got := params.MultiExpInt64Sparse(bases, []int{1, 3, 8}, []int64{0, 5, 0}); got.Cmp(want) != 0 {
				t.Fatalf("zero-valued coords: got %v want %v", got, want)
			}
			// Empty support is the empty product.
			if got := params.MultiExpInt64Sparse(bases, nil, nil); got.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("empty support = %v, want 1", got)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("index/value length mismatch did not panic")
				}
			}()
			params.MultiExpInt64Sparse(bases, []int{1, 2}, []int64{1})
		})
	}
}

// TestMultiExpInt64MontPartsMatchesNaive pins the Montgomery-domain
// sign-split halves: pos/neg must equal the naive product, with the split
// exactly covering positive and negative exponents.
func TestMultiExpInt64MontPartsMatchesNaive(t *testing.T) {
	for _, bits := range []int{64, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			params, err := group.Embedded(bits)
			if err != nil {
				t.Fatal(err)
			}
			mc := params.Mont()
			k := mc.Limbs()
			rng := rand.New(rand.NewSource(int64(bits) + 42))
			pos := make([]uint64, k)
			neg := make([]uint64, k)
			var sc group.MultiExpScratch
			for trial := 0; trial < 30; trial++ {
				n := 1 + rng.Intn(12)
				bases := randomBases(params, rng, n)
				exps := make([]int64, n)
				eBig := make([]*big.Int, n)
				for i := range exps {
					exps[i] = rng.Int63n(2001) - 1000
					if trial%4 == 1 && i == 0 {
						exps[i] = 0
					}
					eBig[i] = big.NewInt(exps[i])
				}
				params.MultiExpInt64MontParts(pos, neg, bases, exps, &sc)
				got := params.Div(mc.FromMont(pos), mc.FromMont(neg))
				if want := naiveProduct(params, bases, eBig); got.Cmp(want) != 0 {
					t.Fatalf("trial %d: pos/neg = %v, want %v", trial, got, want)
				}
			}
			// Empty and all-zero products are 1/1.
			params.MultiExpInt64MontParts(pos, neg, nil, nil, nil)
			if mc.FromMont(pos).Cmp(big.NewInt(1)) != 0 || mc.FromMont(neg).Cmp(big.NewInt(1)) != 0 {
				t.Fatal("empty product != 1")
			}
		})
	}
}
