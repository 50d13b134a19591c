package dlog

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"cryptonn/internal/group"
)

// ErrNotFound reports that the discrete log of the queried element does not
// lie within the solver's bound. Callers typically treat it as a fixed-point
// overflow: the plaintext result grew beyond the configured range.
var ErrNotFound = errors.New("dlog: value outside search bound")

// lookupStackLimbs bounds the modulus width (in 64-bit limbs) for which
// Lookup's two running elements live on the stack; wider groups allocate
// one slice.
const lookupStackLimbs = 16

// Solver recovers x from g^x for x in [-Bound, Bound] using baby-step
// giant-step with a table of about sqrt(2*Bound+1) entries. Lookup scans
// outward from zero, so it costs O(|x|/m + 1) giant steps: values near
// zero resolve in a round or two, and the worst case, x ≈ −Bound, costs
// about 2·Bound/m steps.
type Solver struct {
	params *group.Params
	mont   *group.MontCtx
	bound  int64
	m      int64 // baby-step table size
	reach  int64 // outward rounds: ⌈Bound/m⌉
	steps  int64 // top-k ladder rounds over the shifted range [0, 2·Bound]
	k      int   // limbs per element
	// elems[j*k : (j+1)*k] is g^j in Montgomery form: the exact-match
	// backing store for the hash table's 64-bit candidate keys. elems,
	// tab, giantM and giantP may be shared with other solvers of the same
	// Params (see coreFor); shiftM is per-solver.
	elems  []uint64
	tab    *babyTable
	giantM []uint64 // g^{-m}, Montgomery form
	giantP []uint64 // g^{+m}, Montgomery form
	shiftM []uint64 // g^{Bound}, Montgomery form: maps [-B, B] onto [0, 2B] for TopK
}

// solverCore is the bound-independent part of a solver: the baby-step
// elements, their hash table, and the matching giant steps g^{∓m}. A core
// built for m baby steps serves any solver needing ≤ m of them — the
// giant-step stride only has to match the table height, not the bound —
// so solvers over the same group share one core instead of each rebuilding
// identical tables.
type solverCore struct {
	m      int64
	elems  []uint64
	tab    *babyTable
	giantM []uint64
	giantP []uint64
}

// maxCachedCores bounds the per-Params core cache. Production processes
// hold one or two groups, so the cap only matters for workloads that mint
// Params endlessly (test suites); past it the cache resets and tables are
// simply rebuilt on demand, keeping memory bounded.
const maxCachedCores = 64

var (
	coreMu sync.Mutex
	// cores caches the largest core built per Params. Keyed by pointer
	// identity: Params are long-lived, never copied once in use (their own
	// documented contract), and pointer keys keep independently created
	// groups — even with equal constants, as throughout the tests —
	// isolated from each other.
	cores = map[*group.Params]*solverCore{}
)

// coreFor returns a baby-step core for params with at least mNeed entries,
// building and caching it when no cached core is tall enough. Construction
// runs under the cache lock, so concurrent solver setup over one group
// builds the table exactly once.
func coreFor(params *group.Params, mc *group.MontCtx, mNeed int64) (*solverCore, error) {
	coreMu.Lock()
	defer coreMu.Unlock()
	if c := cores[params]; c != nil && c.m >= mNeed {
		return c, nil
	}
	if len(cores) >= maxCachedCores {
		cores = map[*group.Params]*solverCore{}
	}
	k := mc.Limbs()
	c := &solverCore{
		m:   mNeed,
		tab: newBabyTable(mNeed),
	}
	// The baby steps and the giant-step element are a pure function of
	// (group, m), so a configured table cache restores them — elems and
	// giantM as one payload — and only the hash table (derived data: the
	// low limb of each element) is rebuilt, with zero group operations.
	tc := params.TableCache()
	shape := []int64{mNeed}
	want := int((mNeed + 1) * int64(k))
	var payload []uint64
	if tc != nil {
		payload, _ = tc.LoadLimbs(params, "dlogcore", nil, shape, want)
	}
	if payload != nil {
		c.elems = payload[:mNeed*int64(k)]
		c.giantM = payload[mNeed*int64(k):]
		for j := int64(0); j < mNeed; j++ {
			c.tab.insert(c.elems[j*int64(k)], j)
		}
	} else {
		c.elems = make([]uint64, mNeed*int64(k))
		c.giantM = mc.Elem()
		gM := mc.Elem()
		mc.ToMont(gM, params.G)
		cur := mc.Elem()
		mc.SetOne(cur)
		for j := int64(0); j < mNeed; j++ {
			copy(c.elems[j*int64(k):], cur)
			c.tab.insert(cur[0], j)
			mc.MulMont(cur, cur, gM)
		}
		// cur is now g^m; its inverse is the giant step.
		mc.ToMont(c.giantM, params.Inv(mc.FromMont(cur)))
		if tc != nil {
			payload = make([]uint64, 0, want)
			payload = append(payload, c.elems...)
			payload = append(payload, c.giantM...)
			tc.StoreLimbs(params, "dlogcore", nil, shape, payload)
		}
	}
	// The downward giant step g^{+m} is derived, not stored, so the cached
	// payload keeps its shape.
	c.giantP = mc.Elem()
	if err := mc.InvMont(c.giantP, c.giantM); err != nil {
		return nil, fmt.Errorf("dlog: giant step: %w", err)
	}
	cores[params] = c
	return c, nil
}

// NewSolver builds a solver for logs in [-bound, bound]. Table construction
// costs O(sqrt(bound)) group operations and memory — paid once per group:
// solvers over the same Params share one baby-step table, and a solver
// whose bound fits an already-built table reuses it outright. A lookup of
// x costs O(|x|/m + 1) multiplications for table height m ≈ sqrt(2·bound):
// cheap near zero, where activations and gradients sit, and still about
// 2·bound/m at worst, which is now x ≈ −bound.
func NewSolver(params *group.Params, bound int64) (*Solver, error) {
	if params == nil {
		return nil, errors.New("dlog: nil group parameters")
	}
	if bound <= 0 {
		return nil, fmt.Errorf("dlog: bound must be positive, got %d", bound)
	}
	n := 2*bound + 1 // size of the search range [-bound, bound]
	m := int64(math.Ceil(math.Sqrt(float64(n))))
	mc := params.Mont()
	core, err := coreFor(params, mc, m)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		params: params,
		mont:   mc,
		bound:  bound,
		m:      core.m,
		reach:  (bound + core.m - 1) / core.m,
		steps:  (n + core.m - 1) / core.m,
		k:      mc.Limbs(),
		elems:  core.elems,
		tab:    core.tab,
		giantM: core.giantM,
		giantP: core.giantP,
		shiftM: mc.Elem(),
	}
	mc.ToMont(s.shiftM, params.PowGInt64(bound)) // table-backed fixed-base power
	return s, nil
}

// Bound returns the solver's symmetric search bound.
func (s *Solver) Bound() int64 { return s.bound }

// TableSize returns the number of precomputed baby steps (diagnostics and
// benchmark reporting).
func (s *Solver) TableSize() int { return int(s.m) }

// Lookup returns x such that h = g^x and |x| <= Bound, or ErrNotFound.
//
// The giant-step loop works on stack-resident Montgomery limbs: two
// division-free multiplications and two hash probes per round, no
// allocations. All scratch is call-local, so one Solver serves any number
// of concurrent goroutines.
func (s *Solver) Lookup(h *big.Int) (int64, error) {
	if h == nil {
		return 0, errors.New("dlog: nil element")
	}
	var stack [2 * lookupStackLimbs]uint64
	up, down := s.scratch(&stack)
	s.mont.ToMont(up, h)
	return s.lookupMont(up, down)
}

// LookupMont is Lookup for an element already in Montgomery form (a slice
// of group.MontCtx Limbs() length), as produced by the Montgomery-domain
// decryption pipelines — the query stays in-domain from ciphertext to
// table probe with no big.Int round trip. x is left unmodified.
func (s *Solver) LookupMont(x []uint64) (int64, error) {
	var stack [2 * lookupStackLimbs]uint64
	up, down := s.scratch(&stack)
	copy(up, x[:s.k])
	return s.lookupMont(up, down)
}

// scratch returns the two running elements of a lookup, backed by stack
// when the modulus fits.
func (s *Solver) scratch(stack *[2 * lookupStackLimbs]uint64) (up, down []uint64) {
	k := s.k
	buf := stack[:]
	if k > lookupStackLimbs {
		buf = make([]uint64, 2*k)
	}
	return buf[:k:k], buf[k : 2*k : 2*k]
}

// lookupMont solves up = h (Montgomery form) by scanning outward from zero,
// overwriting both slices. Round i probes up = h·g^{−im}, which matches
// baby step j when x = i·m + j, and then down = h·g^{+(i+1)m}, which
// matches when x = −(i+1)·m + j. Rounds 0…⌈Bound/m⌉ cover [−Bound, Bound],
// and x is found in round ⌈|x|/m⌉ at the latest. The log in range is
// unique, so the first in-range exact match is the answer.
func (s *Solver) lookupMont(up, down []uint64) (int64, error) {
	s.mont.MulMont(down, up, s.giantP)
	for i := int64(0); ; i++ {
		// The key probes run inline; only a key hit pays for the call
		// that exact-matches the element.
		if j := s.tab.find(up[0]); j >= 0 {
			if x, ok := s.candidate(up, j, i*s.m); ok {
				return x, nil
			}
		}
		if i == s.reach {
			break
		}
		s.mont.MulMont(up, up, s.giantM)
		if j := s.tab.find(down[0]); j >= 0 {
			if x, ok := s.candidate(down, j, -(i+1)*s.m); ok {
				return x, nil
			}
		}
		s.mont.MulMont(down, down, s.giantP)
	}
	return 0, fmt.Errorf("%w (bound %d)", ErrNotFound, s.bound)
}

// candidate resolves a key hit at main-table index j for a running element
// gamma standing at exponent offset base (a match means x = base + j). A
// 64-bit key hit is only a candidate: the full element must match, falling
// back to the spill list on collision. A match whose x lies outside
// [-Bound, Bound] (the outermost round can overshoot) reports false, so the
// scan keeps probing instead of stopping.
func (s *Solver) candidate(gamma []uint64, j, base int64) (int64, bool) {
	if !equalElem(gamma, s.elems, j, s.k) {
		j = -1
		for _, e := range s.tab.spill {
			if e.key == gamma[0] && equalElem(gamma, s.elems, e.j, s.k) {
				j = e.j
				break
			}
		}
		if j < 0 {
			return 0, false
		}
	}
	x := base + j
	return x, x >= -s.bound && x <= s.bound
}

// equalElem reports whether gamma equals the j-th stored baby-step element.
func equalElem(gamma, elems []uint64, j int64, k int) bool {
	e := elems[j*int64(k) : j*int64(k)+int64(k)]
	for i := range gamma {
		if gamma[i] != e[i] {
			return false
		}
	}
	return true
}

// MustLookup is Lookup for callers that have already guaranteed the value
// is in range (e.g. tests); it panics on failure.
func (s *Solver) MustLookup(h *big.Int) int64 {
	x, err := s.Lookup(h)
	if err != nil {
		panic(err)
	}
	return x
}
