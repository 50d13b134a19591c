// Batched decryption pipeline.
//
// Every secure computation ends with one group division and one bounded
// discrete log per output cell. Computed cell-at-a-time (the previous
// forEachCell path), each cell pays a full extended-GCD modular inversion
// for its denominator and the worker pool pays one channel round-trip per
// cell. This file replaces that with a chunked pipeline: workers drain
// contiguous chunks of cells, compute all (numerator, denominator) pairs
// of a chunk as Montgomery-domain limb elements, invert the chunk's
// denominators together with a single modular inversion (Montgomery's
// trick, group.MontCtx.BatchInvMont), and only then run the dlog lookups
// (LookupMont, never leaving the domain). Worker-local scratch persists
// across every chunk a worker drains, so the steady state allocates
// nothing per cell.

package securemat

import (
	"fmt"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

// denTableWindow is the window width of the per-column Ct0 tables built by
// the dot-product denominator cache. The tables live for one SecureDot
// call and amortize over len(keys) exponentiations, so they stay shallower
// than the long-lived per-key default.
const denTableWindow = 4

// decryptDotBatched fills z[i][j] = ⟨vecs[i], x_j⟩ for the FEIP dot-product
// decryptions cell (i,j) = (cts[j], keys[i], vecs[i]), entirely in the
// Montgomery domain: numerators run the interleaved mont ladder
// (MultiExpInt64MontParts), denominators come from a precomputed cache,
// each chunk's divisions collapse into one batch inversion, and the final
// group element feeds the dlog solver without leaving the domain
// (LookupMont).
//
// The denominator cache is the hoist the per-cell path could not see:
// ct0_j^{k_i} depends on the pair (row, column), but its base is shared by
// a whole column and its exponent by a whole row. Each key is recoded into
// signed windows once per call (not once per cell), each column gets one
// small fixed-base table for its ct_0, every denominator is then a
// handful of limb multiplications, and the signed recodings' negative
// accumulators across the entire matrix share a single modular inversion.
func decryptDotBatched(p *group.Params, solver *dlog.Solver, cts []*feip.Ciphertext, keys []*feip.FunctionKey, vecs [][]int64, workers int, z [][]int64) error {
	rows, cols := len(keys), len(cts)
	total := rows * cols
	if total == 0 {
		return nil
	}
	inner := len(vecs[0])
	for j, ct := range cts {
		if ct == nil || len(ct.Ct) != inner {
			return fmt.Errorf("%w: ciphertext %d has dimension %d, want %d", ErrShape, j, ct.Eta(), inner)
		}
	}
	for i, fk := range keys {
		if fk == nil || fk.K == nil {
			return fmt.Errorf("%w: empty function key %d", ErrShape, i)
		}
	}
	if workers < 0 {
		workers = DefaultParallelism()
	}
	workers = min(max(workers, 1), total)
	mc := p.Mont()
	k := mc.Limbs()

	// Denominator cache: dens[(i*cols+j)*k : …] = ct0_j^{k_i} in Montgomery
	// form, read-only once the chunk workers start. One recoding per row,
	// one table per column, one inversion for the whole matrix.
	digits := make([][]int16, rows)
	for i, fk := range keys {
		digits[i] = p.RecodeSigned(fk.K, denTableWindow, nil)
	}
	dens := make([]uint64, total*k)
	negs := make([]uint64, total*k)
	for j, ct := range cts {
		tab, err := p.NewFixedBaseTableWindow(ct.Ct0, 0, denTableWindow)
		if err != nil {
			return fmt.Errorf("securemat: denominator table for column %d: %w", j, err)
		}
		for i := 0; i < rows; i++ {
			c := (i*cols + j) * k
			tab.PowRecoded(dens[c:c+k], negs[c:c+k], digits[i])
		}
	}
	if _, err := mc.BatchInvMont(negs, nil); err != nil {
		return fmt.Errorf("securemat: denominator inversion: %w", err)
	}
	for c := 0; c < total; c++ {
		mc.MulMont(dens[c*k:(c+1)*k], dens[c*k:(c+1)*k], negs[c*k:(c+1)*k])
	}

	chunk := chunkSize(total, workers)
	type dotScratch struct {
		nums   []uint64 // per-cell numerator positive halves
		ts     []uint64 // per-cell (negative half · denominator), then its inverse
		neg    []uint64
		inv    []uint64 // batch-inversion prefix scratch
		straus group.MultiExpScratch
	}
	newScratch := func() *dotScratch {
		return &dotScratch{
			nums: make([]uint64, chunk*k),
			ts:   make([]uint64, chunk*k),
			neg:  make([]uint64, k),
		}
	}
	doChunk := func(start, end int, sc *dotScratch) error {
		n := end - start
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			i, j := idx/cols, idx%cols
			num := sc.nums[t*k : (t+1)*k]
			p.MultiExpInt64MontParts(num, sc.neg, cts[j].Ct, vecs[i], &sc.straus)
			// The cell value is numPos / (numNeg · den); fold the negative
			// half into the denominator so the chunk inverts once.
			mc.MulMont(sc.ts[t*k:(t+1)*k], sc.neg, dens[idx*k:(idx+1)*k])
		}
		var err error
		if sc.inv, err = mc.BatchInvMont(sc.ts[:n*k], sc.inv); err != nil {
			return fmt.Errorf("securemat: batch inversion: %w", err)
		}
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			gamma := sc.ts[t*k : (t+1)*k]
			mc.MulMont(gamma, gamma, sc.nums[t*k:(t+1)*k])
			v, err := solver.LookupMont(gamma)
			if err != nil {
				return fmt.Errorf("securemat: cell (%d,%d): %w", idx/cols, idx%cols, err)
			}
			z[idx/cols][idx%cols] = v
		}
		return nil
	}
	return forEachChunk(total, chunk, workers, newScratch, doChunk)
}

// chunkSize picks the batched-decryption chunk length: big enough to
// amortize the one inversion per chunk (the trick turns n inversions into
// one inversion + 3(n−1) muls), small enough to keep all workers busy on
// ragged workloads.
func chunkSize(total, workers int) int {
	chunk := (total + 4*workers - 1) / (4 * workers)
	return min(max(chunk, 16), 256)
}

// decryptElemBatched fills z[i][j] = x[i][j] Δ y[i][j] for the element-wise
// FEBO decryptions, entirely in the Montgomery domain: per-cell numerator
// and denominator come from febo.DecryptPartsMont as raw limb elements
// (small-multiplier ladders for ×, the windowed ExpMont ladder for ÷), each
// chunk's denominators collapse into one batched inversion, and the
// quotients feed dlog.LookupMont without a big.Int round-trip — the same
// pipeline shape as decryptDotBatched.
func decryptElemBatched(pk *febo.PublicKey, solver *dlog.Solver, enc *EncryptedMatrix, keys [][]*febo.FunctionKey, op febo.Op, y [][]int64, workers int, z [][]int64) error {
	rows, cols := enc.Rows, enc.Cols
	total := rows * cols
	if total == 0 {
		return nil
	}
	if workers < 0 {
		workers = DefaultParallelism()
	}
	workers = min(max(workers, 1), total)
	mc := pk.Params.Mont()
	k := mc.Limbs()
	chunk := chunkSize(total, workers)
	type elemScratch struct {
		nums []uint64 // per-cell numerators
		dens []uint64 // per-cell denominators, inverted chunk-wide
		inv  []uint64 // batch-inversion prefix scratch
		fe   febo.DecryptScratch
	}
	newScratch := func() *elemScratch {
		return &elemScratch{
			nums: make([]uint64, chunk*k),
			dens: make([]uint64, chunk*k),
		}
	}
	doChunk := func(start, end int, sc *elemScratch) error {
		n := end - start
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			i, j := idx/cols, idx%cols
			err := febo.DecryptPartsMont(pk, keys[i][j], enc.Elems[i][j], op, y[i][j],
				sc.nums[t*k:(t+1)*k], sc.dens[t*k:(t+1)*k], &sc.fe)
			if err != nil {
				return fmt.Errorf("securemat: cell (%d,%d): %w", i, j, err)
			}
		}
		var err error
		if sc.inv, err = mc.BatchInvMont(sc.dens[:n*k], sc.inv); err != nil {
			return fmt.Errorf("securemat: batch inversion: %w", err)
		}
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			gamma := sc.dens[t*k : (t+1)*k]
			mc.MulMont(gamma, gamma, sc.nums[t*k:(t+1)*k])
			v, err := solver.LookupMont(gamma)
			if err != nil {
				return fmt.Errorf("securemat: cell (%d,%d): %w", idx/cols, idx%cols, err)
			}
			z[idx/cols][idx%cols] = v
		}
		return nil
	}
	return forEachChunk(total, chunk, workers, newScratch, doChunk)
}
