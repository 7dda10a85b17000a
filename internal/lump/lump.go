// Package lump implements state-space partitions, lumped (aggregated)
// Markov chains and lumpability tests — the machinery behind the paper's
// aggregation/disaggregation acceleration. A partition of the state space
// induces a coarse process; it is Markov for every initial distribution
// only under (strong) lumpability, which almost never holds for a
// non-redundant model. The multigrid solver therefore uses *iterate-
// weighted* lumping (weak lumpability along the current iterate): the
// coarse TPM depends on the current fine-level estimate of the stationary
// vector, exactly as in aggregation/disaggregation methods and the
// Horton–Leutenegger multilevel algorithm.
package lump

import (
	"errors"
	"fmt"

	"cdrstoch/internal/spmat"
)

// Partition assigns each fine state to exactly one block (aggregate).
type Partition struct {
	blockOf []int
	nBlocks int
}

// NewPartition builds a partition from the block id of each state. Block
// ids must cover 0..max contiguously (every block non-empty).
func NewPartition(blockOf []int) (*Partition, error) {
	if len(blockOf) == 0 {
		return nil, errors.New("lump: empty partition")
	}
	max := -1
	for i, b := range blockOf {
		if b < 0 {
			return nil, fmt.Errorf("lump: state %d has negative block %d", i, b)
		}
		if b > max {
			max = b
		}
	}
	seen := make([]bool, max+1)
	for _, b := range blockOf {
		seen[b] = true
	}
	for b, s := range seen {
		if !s {
			return nil, fmt.Errorf("lump: block %d is empty", b)
		}
	}
	cp := make([]int, len(blockOf))
	copy(cp, blockOf)
	return &Partition{blockOf: cp, nBlocks: max + 1}, nil
}

// PairsWithinSegments partitions numSegs contiguous segments of length
// segLen by pairing consecutive entries inside each segment (the last
// entry of an odd-length segment forms a singleton block). This is the
// paper's coarsening strategy: "lump the two states corresponding to
// consecutive discretized phase error values", applied independently
// within each (data state, filter state) segment.
func PairsWithinSegments(segLen, numSegs int) (*Partition, error) {
	if segLen <= 0 || numSegs <= 0 {
		return nil, fmt.Errorf("lump: bad segmentation %dx%d", segLen, numSegs)
	}
	blocksPerSeg := (segLen + 1) / 2
	blockOf := make([]int, segLen*numSegs)
	for s := 0; s < numSegs; s++ {
		for i := 0; i < segLen; i++ {
			blockOf[s*segLen+i] = s*blocksPerSeg + i/2
		}
	}
	return NewPartition(blockOf)
}

// MergeSegmentsElementwise partitions a state space laid out as
// groups × segsPerGroup × segLen (innermost fastest) by merging runs of
// width adjacent *segments* within each group elementwise: segment s maps
// entry m onto coarse entry m of coarse segment s/width. With width 2^K
// it is the composition of K successive pairings, in one partition. The
// multigrid hierarchy uses it to coarsen across the loop-filter (counter)
// dimension once the phase grid within segments has been exhausted.
func MergeSegmentsElementwise(segLen, segsPerGroup, groups, width int) (*Partition, error) {
	if segLen <= 0 || segsPerGroup <= 0 || groups <= 0 || width <= 0 {
		return nil, fmt.Errorf("lump: bad layout %dx%dx%d merged by %d", groups, segsPerGroup, segLen, width)
	}
	coarseSegs := (segsPerGroup + width - 1) / width
	blockOf := make([]int, groups*segsPerGroup*segLen)
	for g := 0; g < groups; g++ {
		for s := 0; s < segsPerGroup; s++ {
			for m := 0; m < segLen; m++ {
				fine := (g*segsPerGroup+s)*segLen + m
				blockOf[fine] = (g*coarseSegs+s/width)*segLen + m
			}
		}
	}
	return NewPartition(blockOf)
}

// NumBlocks returns the number of aggregates.
func (p *Partition) NumBlocks() int { return p.nBlocks }

// NumStates returns the number of fine states.
func (p *Partition) NumStates() int { return len(p.blockOf) }

// BlockOf returns the block id of fine state i.
func (p *Partition) BlockOf(i int) int { return p.blockOf[i] }

// Blocks materializes the member lists of every block.
func (p *Partition) Blocks() [][]int {
	out := make([][]int, p.nBlocks)
	for i, b := range p.blockOf {
		out[b] = append(out[b], i)
	}
	return out
}

// Restrict aggregates a fine vector: dst[B] = Σ_{i∈B} fine[i]. dst is
// allocated when nil; it is returned.
func (p *Partition) Restrict(dst, fine []float64) []float64 {
	if len(fine) != len(p.blockOf) {
		panic("lump: Restrict dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, p.nBlocks)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range p.blockOf {
		dst[b] += fine[i]
	}
	return dst
}

// Weights returns the within-block proportions of a non-negative fine
// vector x: w[i] = x[i] / Σ_{j∈block(i)} x[j], falling back to uniform
// within blocks whose mass vanished. These are the disaggregation weights
// of the aggregation/disaggregation step.
func (p *Partition) Weights(x []float64) []float64 {
	if len(x) != len(p.blockOf) {
		panic("lump: Weights dimension mismatch")
	}
	sums := p.Restrict(nil, x)
	counts := make([]int, p.nBlocks)
	for _, b := range p.blockOf {
		counts[b]++
	}
	w := make([]float64, len(x))
	for i, b := range p.blockOf {
		if sums[b] > 0 {
			w[i] = x[i] / sums[b]
		} else {
			w[i] = 1 / float64(counts[b])
		}
	}
	return w
}

// Prolong disaggregates a coarse vector with the given weights:
// dst[i] = coarse[block(i)]·weights[i]. dst is allocated when nil.
func (p *Partition) Prolong(dst, coarse, weights []float64) []float64 {
	if len(coarse) != p.nBlocks || len(weights) != len(p.blockOf) {
		panic("lump: Prolong dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, len(p.blockOf))
	}
	for i, b := range p.blockOf {
		dst[i] = coarse[b] * weights[i]
	}
	return dst
}

// Lump forms the iterate-weighted coarse TPM:
//
//	P_c[I,J] = Σ_{i∈I} w_i · Σ_{j∈J} P[i,j],  w_i = x_i / Σ_{i'∈I} x_{i'}
//
// With x equal to the exact stationary vector, the coarse chain's
// stationary vector is exactly the aggregated fine one; with an
// approximate iterate it is the standard A/D coarse operator. The result
// is row-stochastic whenever P is.
func Lump(p *spmat.CSR, part *Partition, x []float64) (*spmat.CSR, error) {
	n, m := p.Dims()
	if n != m {
		return nil, errors.New("lump: TPM must be square")
	}
	if n != part.NumStates() {
		return nil, fmt.Errorf("lump: partition covers %d states, TPM has %d", part.NumStates(), n)
	}
	if len(x) != n {
		return nil, errors.New("lump: weight vector length mismatch")
	}
	w := part.Weights(x)
	nb := part.NumBlocks()
	tr := spmat.NewTriplet(nb, nb)
	tr.Reserve(p.NNZ())
	for i := 0; i < n; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		bi := part.blockOf[i]
		cols, vals := p.Row(i)
		for k, j := range cols {
			if vals[k] == 0 {
				continue
			}
			tr.Add(bi, part.blockOf[j], wi*vals[k])
		}
	}
	coarse := tr.ToCSR()
	// Zero-weight rows can arise only from blocks with vanished mass whose
	// fallback-uniform weights still cover them, so rows should be
	// stochastic; verify cheaply in debug-style.
	if err := coarse.CheckStochastic(1e-8); err != nil {
		return nil, fmt.Errorf("lump: coarse TPM not stochastic: %w", err)
	}
	return coarse, nil
}

// IsExactlyLumpable reports whether the partition is strongly lumpable for
// P: for every block J, the aggregated transition probability into J is
// constant across the states of each block I (within tol). Strongly
// lumpable partitions yield a coarse chain that is Markov for every
// initial distribution — the rare, redundant-model case discussed in the
// paper.
func IsExactlyLumpable(p *spmat.CSR, part *Partition, tol float64) (bool, error) {
	n, m := p.Dims()
	if n != m || n != part.NumStates() {
		return false, errors.New("lump: dimension mismatch")
	}
	// For each state, compute its aggregated row (distribution over
	// blocks), then compare within blocks against the block's first state.
	nb := part.NumBlocks()
	ref := make(map[int][]float64, nb) // block -> aggregated row of first member
	rowAgg := make([]float64, nb)
	touched := make([]int, 0, 16)
	for i := 0; i < n; i++ {
		for _, b := range touched {
			rowAgg[b] = 0
		}
		touched = touched[:0]
		cols, vals := p.Row(i)
		for k, j := range cols {
			b := part.blockOf[j]
			if rowAgg[b] == 0 && vals[k] != 0 {
				touched = append(touched, b)
			}
			rowAgg[b] += vals[k]
		}
		bi := part.blockOf[i]
		if r, ok := ref[bi]; ok {
			for b := 0; b < nb; b++ {
				d := rowAgg[b] - r[b]
				if d < 0 {
					d = -d
				}
				if d > tol {
					return false, nil
				}
			}
		} else {
			cp := make([]float64, nb)
			copy(cp, rowAgg)
			ref[bi] = cp
		}
	}
	return true, nil
}
