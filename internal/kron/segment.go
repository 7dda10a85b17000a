package kron

import (
	"sort"

	"cdrstoch/internal/spmat"
)

// SegmentEntry is one nonzero of a term's outer Kronecker product: the
// implicit matrix holds Coeff·F_t (F_t the term's innermost factor) as
// its block from source segment Src to destination segment Dst.
type SegmentEntry struct {
	Term     int
	Src, Dst int
	Coeff    float64 // term coefficient times the outer factors' entries
}

// SegmentView splits a descriptor at its innermost mode: global state
// i = s·Inner + p lies in outer segment s at inner position p (the
// phase-error grid point in the CDR model), and
//
//	P[(s,p),(s',q)] = Σ_t O_t[s,s']·F_t[p,q]
//
// where O_t is the term's coefficient times the Kronecker product of its
// outer factors. The view lists every nonzero of every O_t once, grouped
// by source and by destination segment, and keeps each term's innermost
// factor with its transpose. That is the access pattern of a segment-wise
// Gauss–Seidel sweep (block column by block column) and of a restriction
// that lumps within segments (block row by block row), with no per-entry
// search and no global matrix.
type SegmentView struct {
	// Segments is the number of outer segments, Dim/Inner.
	Segments int
	// Inner is the innermost mode's size.
	Inner int
	// Factors holds each term's innermost factor, FactorsT its transpose
	// (rows of FactorsT are columns of the factor).
	Factors, FactorsT []*spmat.CSR

	from, into, within          []SegmentEntry
	fromPtr, intoPtr, withinPtr []int
}

// SegmentView builds the innermost-mode segment view. Zero-coefficient
// terms and zero outer entries are left out.
func (d *Descriptor) SegmentView() *SegmentView {
	c := len(d.sizes) - 1
	v := &SegmentView{
		Segments: d.dim / d.sizes[c],
		Inner:    d.sizes[c],
		Factors:  make([]*spmat.CSR, len(d.terms)),
		FactorsT: make([]*spmat.CSR, len(d.terms)),
	}
	var all []SegmentEntry
	for ti, t := range d.terms {
		v.Factors[ti] = t.Factors[c]
		v.FactorsT[ti] = t.Factors[c].Transpose()
		if t.Coeff == 0 {
			continue
		}
		var expand func(k, src, dst int, prod float64)
		expand = func(k, src, dst int, prod float64) {
			if k == c {
				all = append(all, SegmentEntry{Term: ti, Src: src, Dst: dst, Coeff: prod})
				return
			}
			n := d.sizes[k]
			f := t.Factors[k]
			for i := 0; i < n; i++ {
				cols, vals := f.Row(i)
				for kk, j := range cols {
					if vals[kk] != 0 {
						expand(k+1, src*n+i, dst*n+j, prod*vals[kk])
					}
				}
			}
		}
		expand(0, 0, 0, t.Coeff)
	}
	v.from, v.fromPtr = groupEntries(all, v.Segments, func(e SegmentEntry) int { return e.Src }, nil)
	offDiag := func(e SegmentEntry) bool { return e.Src != e.Dst }
	onDiag := func(e SegmentEntry) bool { return e.Src == e.Dst }
	v.into, v.intoPtr = groupEntries(all, v.Segments, func(e SegmentEntry) int { return e.Dst }, offDiag)
	v.within, v.withinPtr = groupEntries(all, v.Segments, func(e SegmentEntry) int { return e.Dst }, onDiag)
	return v
}

// groupEntries stably sorts the entries keep accepts (all when nil) by
// key and returns them with the per-segment start offsets.
func groupEntries(all []SegmentEntry, segs int, key func(SegmentEntry) int, keep func(SegmentEntry) bool) ([]SegmentEntry, []int) {
	out := make([]SegmentEntry, 0, len(all))
	for _, e := range all {
		if keep == nil || keep(e) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return key(out[a]) < key(out[b]) })
	ptr := make([]int, segs+1)
	for _, e := range out {
		ptr[key(e)+1]++
	}
	for s := 0; s < segs; s++ {
		ptr[s+1] += ptr[s]
	}
	return out, ptr
}

// From returns the blocks in source segment s's block row, diagonal
// included.
func (v *SegmentView) From(s int) []SegmentEntry { return v.from[v.fromPtr[s]:v.fromPtr[s+1]] }

// Into returns the off-diagonal blocks of destination segment s's block
// column: the inflow from every other segment.
func (v *SegmentView) Into(s int) []SegmentEntry { return v.into[v.intoPtr[s]:v.intoPtr[s+1]] }

// Within returns the terms of segment s's diagonal block.
func (v *SegmentView) Within(s int) []SegmentEntry {
	return v.within[v.withinPtr[s]:v.withinPtr[s+1]]
}

// OpsPerSweep is the multiply-add count of one pass over every block —
// a segment-wise Gauss–Seidel sweep or one restriction — the stored nnz
// of the implicit matrix before duplicate entries merge.
func (v *SegmentView) OpsPerSweep() int64 {
	var ops int64
	for _, e := range v.from {
		ops += int64(v.Factors[e.Term].NNZ())
	}
	return ops
}

// MemoryBytes estimates the view's own heap footprint: the three entry
// lists, their offsets and the transposed innermost factors (the factors
// themselves belong to the descriptor).
func (v *SegmentView) MemoryBytes() int64 {
	const entryBytes = 32
	b := int64(len(v.from)+len(v.into)+len(v.within)) * entryBytes
	b += int64(len(v.fromPtr)+len(v.intoPtr)+len(v.withinPtr)) * 8
	for _, ft := range v.FactorsT {
		b += ft.MemoryBytes()
	}
	return b
}
