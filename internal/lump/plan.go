package lump

import (
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/spmat"
)

// Plan precomputes everything about iterate-weighted lumping that depends
// only on the fine sparsity pattern and the partition: the coarse matrix's
// structural pattern and, for every fine stored entry, the index of the
// coarse entry it accumulates into. Repeated lumping along a sequence of
// iterates — the multigrid cycle does one per level per cycle — then
// reduces to a weights pass and an O(nnz) scatter into the coarse value
// slice, with zero allocation after the plan is built. Lump, by contrast,
// rebuilds a triplet and re-sorts it on every call.
//
// The coarse pattern is the structural image of the fine pattern: it keeps
// entries whose accumulated value happens to be zero for the current
// iterate, which a fresh Lump would drop. Explicit zeros are valid CSR and
// harmless to the smoothers and the coarsest-level GTH solve.
type Plan struct {
	p      *spmat.CSR
	part   *Partition
	coarse *spmat.CSR
	dest   []int     // coarse val index per fine stored entry, row-major
	w      []float64 // disaggregation weights of the last Update
	sums   []float64 // per-block scratch: iterate mass, then coarse row sums
	counts []int     // block sizes, for the vanished-mass uniform fallback
}

// NewPlan validates the pair like Lump and builds the structural plan.
// The fine matrix's values may change between Updates (the multigrid
// hierarchy refreshes them in place level by level); its pattern must not.
func NewPlan(p *spmat.CSR, part *Partition) (*Plan, error) {
	n, m := p.Dims()
	if n != m {
		return nil, errors.New("lump: TPM must be square")
	}
	if n != part.NumStates() {
		return nil, fmt.Errorf("lump: partition covers %d states, TPM has %d", part.NumStates(), n)
	}
	nb := part.NumBlocks()
	counts := make([]int, nb)
	for _, b := range part.blockOf {
		counts[b]++
	}
	tr := spmat.NewTriplet(nb, nb)
	tr.Reserve(p.NNZ())
	for i := 0; i < n; i++ {
		bi := part.blockOf[i]
		cols, _ := p.Row(i)
		for _, j := range cols {
			tr.Add(bi, part.blockOf[j], 0)
		}
	}
	coarse := tr.ToCSR()
	dest := make([]int, p.NNZ())
	k := 0
	for i := 0; i < n; i++ {
		bi := part.blockOf[i]
		cols, _ := p.Row(i)
		for _, j := range cols {
			d := coarse.EntryIndex(bi, part.blockOf[j])
			if d < 0 {
				return nil, fmt.Errorf("lump: internal: coarse entry (%d,%d) missing", bi, part.blockOf[j])
			}
			dest[k] = d
			k++
		}
	}
	return &Plan{
		p:      p,
		part:   part,
		coarse: coarse,
		dest:   dest,
		w:      make([]float64, n),
		sums:   make([]float64, nb),
		counts: counts,
	}, nil
}

// Coarse returns the plan-owned coarse matrix. Update rewrites its values
// in place; the pointer stays valid across Updates.
func (pl *Plan) Coarse() *spmat.CSR { return pl.coarse }

// Weights returns the disaggregation weights computed by the last Update.
// The slice aliases plan storage and is overwritten by the next Update.
func (pl *Plan) Weights() []float64 { return pl.w }

// Update recomputes the coarse matrix values for iterate x — the same
// operator Lump(p, part, x) builds — reusing the plan's pattern and
// buffers. It also refreshes Weights. No allocation.
func (pl *Plan) Update(x []float64) error {
	bo := pl.part.blockOf
	n := len(bo)
	if len(x) != n {
		return errors.New("lump: weight vector length mismatch")
	}
	clear(pl.sums)
	for i, b := range bo {
		pl.sums[b] += x[i]
	}
	for i, b := range bo {
		if pl.sums[b] > 0 {
			pl.w[i] = x[i] / pl.sums[b]
		} else {
			pl.w[i] = 1 / float64(pl.counts[b])
		}
	}
	// The scatter pass also checks the result: fine entries must not be
	// negative, and coarse row I sums to Σ_{i∈I} w_i·rowsum_i, which sums
	// collects (its block masses are spent once the weights are set), so
	// the coarse rows are validated without a second pass.
	const tol = 1e-8
	cv := pl.coarse.RawValues()
	clear(cv)
	clear(pl.sums)
	k := 0
	for i := 0; i < n; i++ {
		cols, vals := pl.p.Row(i)
		wi := pl.w[i]
		if wi == 0 {
			k += len(vals)
			continue
		}
		sum := 0.0
		for kk, v := range vals {
			if v < -tol {
				return fmt.Errorf("lump: coarse TPM not stochastic: negative probability %g at fine (%d,%d)", v, i, cols[kk])
			}
			sum += v
			cv[pl.dest[k]] += wi * v
			k++
		}
		pl.sums[bo[i]] += wi * sum
	}
	for b, sum := range pl.sums {
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("lump: coarse TPM not stochastic: row %d sums to %g, want 1±%g", b, sum, tol)
		}
	}
	return nil
}
