// Package kron implements stochastic-automata-network (SAN) descriptors:
// transition probability matrices represented as sums of Kronecker
// products of small per-component matrices, in the spirit of Plateau's
// stochastic automata networks and the "hierarchical Kronecker
// algebra-like techniques" the paper identifies as the scaling path for
// storing and manipulating very large structured TPMs.
//
// A descriptor never materializes the global matrix: the fundamental
// operations y = x·P and y = P·x are evaluated term by term with the
// shuffle algorithm, one tensor mode at a time, at a cost proportional to
// the component matrices' nonzeros times the remaining dimensions. A
// Descriptor satisfies markov.Operator (Dims, MulVec, VecMul, Diag,
// RowSums), so every operator-backed markov solver — power, Jacobi,
// GMRES — and the multigrid solver's implicit finest level (NewKron) run
// directly on the implicit form.
package kron

import (
	"errors"
	"fmt"
	"sync"

	"cdrstoch/internal/spmat"
)

// Term is one Kronecker-product summand c·(F₁ ⊗ F₂ ⊗ … ⊗ F_C).
type Term struct {
	// Coeff scales the product term (typically an event probability).
	Coeff float64
	// Factors holds one square matrix per component, outermost first.
	Factors []*spmat.CSR
}

// Descriptor is a sum of Kronecker-product terms over a fixed component
// structure. All terms must agree on the per-component dimensions.
type Descriptor struct {
	sizes []int
	dim   int
	terms []Term

	// workers is the slab-parallel width of the shuffle products; set
	// once via SetWorkers before the descriptor is shared.
	workers int
	// ws recycles shuffle scratch for the convenience VecMul/MulVec
	// forms, so repeated multiplies allocate nothing after warmup.
	ws sync.Pool
}

// NewDescriptor validates the terms and returns a descriptor.
func NewDescriptor(terms []Term) (*Descriptor, error) {
	if len(terms) == 0 {
		return nil, errors.New("kron: no terms")
	}
	var sizes []int
	for ti, t := range terms {
		if len(t.Factors) == 0 {
			return nil, fmt.Errorf("kron: term %d has no factors", ti)
		}
		if sizes == nil {
			sizes = make([]int, len(t.Factors))
			for c, f := range t.Factors {
				r, cl := f.Dims()
				if r != cl {
					return nil, fmt.Errorf("kron: term %d factor %d is %dx%d, want square", ti, c, r, cl)
				}
				sizes[c] = r
			}
		} else {
			if len(t.Factors) != len(sizes) {
				return nil, fmt.Errorf("kron: term %d has %d factors, want %d", ti, len(t.Factors), len(sizes))
			}
			for c, f := range t.Factors {
				r, cl := f.Dims()
				if r != sizes[c] || cl != sizes[c] {
					return nil, fmt.Errorf("kron: term %d factor %d is %dx%d, want %dx%d",
						ti, c, r, cl, sizes[c], sizes[c])
				}
			}
		}
	}
	dim := 1
	for _, s := range sizes {
		if s <= 0 {
			return nil, errors.New("kron: zero-dimensional factor")
		}
		next := dim * s
		if next/s != dim {
			return nil, errors.New("kron: global dimension overflows")
		}
		dim = next
	}
	d := &Descriptor{sizes: sizes, dim: dim, terms: terms}
	d.ws.New = func() any { return &Workspace{} }
	return d, nil
}

// Dim returns the global state-space size (product of component sizes).
func (d *Descriptor) Dim() int { return d.dim }

// Dims returns the square global dimensions, matching spmat.CSR.Dims and
// the markov.Operator surface.
func (d *Descriptor) Dims() (r, c int) { return d.dim, d.dim }

// Sizes returns the per-component dimensions, outermost first.
func (d *Descriptor) Sizes() []int {
	out := make([]int, len(d.sizes))
	copy(out, d.sizes)
	return out
}

// NumTerms returns the number of Kronecker terms.
func (d *Descriptor) NumTerms() int { return len(d.terms) }

// SetWorkers sets the parallel width of subsequent shuffle products:
// each mode product splits race-free over disjoint tensor slabs (the
// leading mode when it is wide enough, the trailing stride otherwise).
// 0 or 1 keeps the products serial; descriptors below
// spmat.ParallelCutoff stay serial regardless. Set once before the
// descriptor is shared across goroutines — the width is read unlocked on
// the multiply hot path.
func (d *Descriptor) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.workers = n
}

// NNZ returns the stored entries across all factor matrices — the
// descriptor's actual storage, as opposed to the global matrix's nnz.
func (d *Descriptor) NNZ() int64 {
	var n int64
	for _, t := range d.terms {
		for _, f := range t.Factors {
			n += int64(f.NNZ())
		}
	}
	return n
}

// MemoryBytes estimates the descriptor's heap footprint: the factor
// matrices' CSR arrays. This is the matrix-memory number the cost
// accounting reports for Kron-backed solves; compare it against the
// materialized product's CSR.MemoryBytes to see the compression.
func (d *Descriptor) MemoryBytes() int64 {
	var b int64
	for _, t := range d.terms {
		for _, f := range t.Factors {
			b += f.MemoryBytes()
		}
	}
	return b
}

// OpsPerMul estimates the multiply-add count of one shuffle product:
// Σ_t Σ_c nnz(F_c)·(dim/n_c). The cost layer attributes this as the
// "entries touched" of each implicit SpMV, keeping effective-bandwidth
// estimates meaningful for matrix-free solves.
func (d *Descriptor) OpsPerMul() int64 {
	var ops int64
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		for c, f := range t.Factors {
			ops += int64(f.NNZ()) * int64(d.dim/d.sizes[c])
		}
	}
	return ops
}

// Workspace holds the two scratch vectors a shuffle product ping-pongs
// between. The zero value is ready; buffers grow to the descriptor
// dimension on first use and are reused afterwards, so a solver that
// keeps a Workspace performs zero allocations per multiply. A Workspace
// serves one multiply at a time — share descriptors, not workspaces.
type Workspace struct {
	cur, next []float64
}

// ensure sizes the scratch for an n-dimensional product, reusing capacity.
func (w *Workspace) ensure(n int) {
	if cap(w.cur) < n {
		w.cur = make([]float64, n)
		w.next = make([]float64, n)
	}
	w.cur = w.cur[:n]
	w.next = w.next[:n]
}

// modeVecMulPart computes the mode-k vector–matrix product of the
// tensorized vector x with factor a over the slab lo ≤ l < hi and the
// stride window rlo ≤ r < rhi: out[l, j, r] += Σ_i x[l, i, r]·a[i, j].
// Distinct (l-range, r-range) slabs write disjoint regions of out, which
// is what makes the parallel split race-free.
func modeVecMulPart(out, x []float64, a *spmat.CSR, n, right, lo, hi, rlo, rhi int) {
	if right == 1 {
		// Innermost mode: each run has length one, so scatter scalars
		// instead of slicing a one-element window per factor entry.
		for l := lo; l < hi; l++ {
			xs := x[l*n : (l+1)*n]
			ys := out[l*n : (l+1)*n]
			for i, xi := range xs {
				cols, vals := a.Row(i)
				for kk, j := range cols {
					if v := vals[kk]; v != 0 {
						ys[j] += v * xi
					}
				}
			}
		}
		return
	}
	for l := lo; l < hi; l++ {
		base := l * n * right
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				continue
			}
			xi := base + i*right
			for kk, j := range cols {
				v := vals[kk]
				if v == 0 {
					continue
				}
				yj := base + j*right
				xr := x[xi+rlo : xi+rhi]
				yr := out[yj+rlo : yj+rhi]
				for r := range xr {
					yr[r] += v * xr[r]
				}
			}
		}
	}
}

// modeMulVecPart is the matrix–vector twin: out[l, i, r] += Σ_j
// a[i, j]·x[l, j, r], the mode-k product of y = P·x.
func modeMulVecPart(out, x []float64, a *spmat.CSR, n, right, lo, hi, rlo, rhi int) {
	if right == 1 {
		// Innermost mode: gather each row into a scalar, adding in the
		// same order as the strided loop below.
		for l := lo; l < hi; l++ {
			xs := x[l*n : (l+1)*n]
			ys := out[l*n : (l+1)*n]
			for i := range ys {
				cols, vals := a.Row(i)
				sum := ys[i]
				for kk, j := range cols {
					if v := vals[kk]; v != 0 {
						sum += v * xs[j]
					}
				}
				ys[i] = sum
			}
		}
		return
	}
	for l := lo; l < hi; l++ {
		base := l * n * right
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				continue
			}
			yi := base + i*right
			for kk, j := range cols {
				v := vals[kk]
				if v == 0 {
					continue
				}
				xj := base + j*right
				xr := x[xj+rlo : xj+rhi]
				yr := out[yi+rlo : yi+rhi]
				for r := range xr {
					yr[r] += v * xr[r]
				}
			}
		}
	}
}

// partFunc is the signature shared by modeVecMulPart and modeMulVecPart.
type partFunc func(out, x []float64, a *spmat.CSR, n, right, lo, hi, rlo, rhi int)

// pickPart selects the mode-product kernel. Returning the func (rather
// than reassigning a local that goroutine closures later capture) keeps
// the serial path allocation-free: a captured-and-mutated func variable
// would be moved to the heap on every call.
func pickPart(vecMul bool) partFunc {
	if vecMul {
		return modeVecMulPart
	}
	return modeMulVecPart
}

// modeProduct dispatches one mode product, splitting it across the
// descriptor's worker width when the tensor shape offers enough
// race-free slabs: the leading (left) mode partitions whole blocks, the
// trailing stride partitions the innermost contiguous runs. Small
// descriptors and width ≤ 1 stay on the serial path.
func (d *Descriptor) modeProduct(vecMul bool, out, x []float64, a *spmat.CSR, left, n, right int) {
	part := pickPart(vecMul)
	w := d.workers
	if w > left {
		w = left
	}
	if left < 2 && right >= 2 {
		w = d.workers
		if w > right {
			w = right
		}
		if w > 1 && d.dim >= spmat.ParallelCutoff {
			var wg sync.WaitGroup
			chunk := (right + w - 1) / w
			for rlo := 0; rlo < right; rlo += chunk {
				rhi := rlo + chunk
				if rhi > right {
					rhi = right
				}
				wg.Add(1)
				go func(rlo, rhi int) {
					defer wg.Done()
					part(out, x, a, n, right, 0, left, rlo, rhi)
				}(rlo, rhi)
			}
			wg.Wait()
			return
		}
		part(out, x, a, n, right, 0, left, 0, right)
		return
	}
	if w > 1 && d.dim >= spmat.ParallelCutoff {
		var wg sync.WaitGroup
		chunk := (left + w - 1) / w
		for lo := 0; lo < left; lo += chunk {
			hi := lo + chunk
			if hi > left {
				hi = left
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				part(out, x, a, n, right, lo, hi, 0, right)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	part(out, x, a, n, right, 0, left, 0, right)
}

// mul runs the full shuffle evaluation of y = x·P (vecMul) or y = P·x
// into y using ws scratch.
func (d *Descriptor) mul(vecMul bool, ws *Workspace, y, x []float64) {
	if len(x) != d.dim || len(y) != d.dim {
		panic("kron: multiply dimension mismatch")
	}
	ws.ensure(d.dim)
	cur, next := ws.cur, ws.next
	for i := range y {
		y[i] = 0
	}
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		copy(cur, x)
		left := 1
		right := d.dim
		for c, f := range t.Factors {
			n := d.sizes[c]
			right /= n
			for i := range next {
				next[i] = 0
			}
			d.modeProduct(vecMul, next, cur, f, left, n, right)
			cur, next = next, cur
			left *= n
		}
		coeff := t.Coeff
		for i := range y {
			y[i] += coeff * cur[i]
		}
	}
	ws.cur, ws.next = cur, next
}

// VecMulWs computes y = x·P with caller-owned scratch: the zero-alloc
// form every solver loop uses. y must have length Dim and not alias x.
func (d *Descriptor) VecMulWs(ws *Workspace, y, x []float64) { d.mul(true, ws, y, x) }

// MulVecWs computes y = P·x with caller-owned scratch.
func (d *Descriptor) MulVecWs(ws *Workspace, y, x []float64) { d.mul(false, ws, y, x) }

// VecMul computes y = x·P where P is the descriptor's implicit matrix.
// y must have length Dim and may not alias x. Scratch comes from an
// internal pool, so repeated calls allocate nothing after warmup;
// solvers that multiply in a tight loop should hold a Workspace and call
// VecMulWs to skip the pool round-trip entirely.
func (d *Descriptor) VecMul(y, x []float64) {
	ws := d.ws.Get().(*Workspace)
	d.mul(true, ws, y, x)
	d.ws.Put(ws)
}

// MulVec computes y = P·x — the column-action the flux measures and the
// restriction operators need. Same scratch discipline as VecMul.
func (d *Descriptor) MulVec(y, x []float64) {
	ws := d.ws.Get().(*Workspace)
	d.mul(false, ws, y, x)
	d.ws.Put(ws)
}

// kronExpand accumulates coeff·(v₁ ⊗ v₂ ⊗ … ⊗ v_C) into out, where the
// outer product is taken outermost-first — the expansion both Diag and
// RowSums reduce to, since both are Kronecker-factorizable per term.
func kronExpand(out []float64, coeff float64, vecs [][]float64) {
	cur := []float64{coeff}
	for _, v := range vecs {
		next := make([]float64, len(cur)*len(v))
		for a, ca := range cur {
			if ca == 0 {
				continue
			}
			base := a * len(v)
			for b, vb := range v {
				next[base+b] = ca * vb
			}
		}
		cur = next
	}
	for i := range out {
		out[i] += cur[i]
	}
}

// Diag returns the implicit matrix's diagonal: per term, the diagonal of
// a Kronecker product is the Kronecker product of the factor diagonals.
// The slice is freshly allocated (call once per solve, as the Jacobi
// splitting does).
func (d *Descriptor) Diag() []float64 {
	out := make([]float64, d.dim)
	vecs := make([][]float64, len(d.sizes))
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		for c, f := range t.Factors {
			vecs[c] = f.Diag()
		}
		kronExpand(out, t.Coeff, vecs)
	}
	return out
}

// RowSums returns the implicit matrix's row sums — the Kronecker product
// of the factor row sums, summed over terms. A stochastic descriptor
// returns the all-ones vector (to rounding), which is how the operator
// backend validates stochasticity without materializing anything.
func (d *Descriptor) RowSums() []float64 {
	out := make([]float64, d.dim)
	vecs := make([][]float64, len(d.sizes))
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		for c, f := range t.Factors {
			vecs[c] = f.RowSums()
		}
		kronExpand(out, t.Coeff, vecs)
	}
	return out
}

// ToCSR materializes the descriptor as an explicit sparse matrix, block
// by block through the segment view. Intended for tests and small
// models; the memory cost is the full global nnz.
func (d *Descriptor) ToCSR() *spmat.CSR {
	tr := spmat.NewTriplet(d.dim, d.dim)
	v := d.SegmentView()
	for s := 0; s < v.Segments; s++ {
		for _, e := range v.From(s) {
			f := v.Factors[e.Term]
			for p := 0; p < v.Inner; p++ {
				cols, vals := f.Row(p)
				for k, q := range cols {
					if vals[k] != 0 {
						tr.Add(e.Src*v.Inner+p, e.Dst*v.Inner+q, e.Coeff*vals[k])
					}
				}
			}
		}
	}
	return tr.ToCSR()
}

// Kron returns the explicit Kronecker product A ⊗ B.
func Kron(a, b *spmat.CSR) *spmat.CSR {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	tr := spmat.NewTriplet(ar*br, ac*bc)
	tr.Reserve(a.NNZ() * b.NNZ())
	for i := 0; i < ar; i++ {
		acols, avals := a.Row(i)
		for k, aj := range acols {
			av := avals[k]
			if av == 0 {
				continue
			}
			for p := 0; p < br; p++ {
				bcols, bvals := b.Row(p)
				for q, bj := range bcols {
					if bvals[q] == 0 {
						continue
					}
					tr.Add(i*br+p, aj*bc+bj, av*bvals[q])
				}
			}
		}
	}
	return tr.ToCSR()
}
