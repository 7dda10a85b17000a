package multigrid

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// kronLevel is an implicit finest level: the TPM exists only as a
// Kronecker descriptor, read through its innermost-mode segment view
// (kron.SegmentView). Smoothing is the same relaxed Gauss–Seidel sweep the
// explicit levels run, taken one segment at a time: the inflow from other
// segments is scattered through the innermost factors' rows, then the
// diagonal block is swept point by point through their transposed rows.
// It is serial, like every Gauss–Seidel sweep. Restriction lumps the
// innermost tensor mode — the phase-error discretization in the CDR model
// — agg pairings at once into the explicit coarse level below, roughly
// 2^agg smaller than the global nnz. That level's sparsity pattern is
// fixed at construction; each cycle rewrites only its values with the
// iterate-weighted (Horton–Leutenegger) aggregation, walking the same
// segment lists, so cycles allocate nothing.
type kronLevel struct {
	d   *kron.Descriptor
	sv  *kron.SegmentView
	agg int // innermost-mode pairings folded into the restriction
	m   int // fine innermost (phase) size
	mc  int // coarse innermost size after agg pairings

	ws    kron.Workspace
	y     []float64 // fine product buffer
	acc   []float64 // one segment's inflow, m long
	slot  []int     // coarse column → value index of the coarse row being refreshed
	ops   int       // multiply-adds of one sweep
	omega float64
	pool  *spmat.Pool

	next  *csrLevel // the aggregated coarse level; its matrix is rewritten per cycle
	xcOld []float64 // restricted block masses (pre-correction)
	xc    []float64 // coarse iterate handed to the recursion
}

// NewKron builds a solver whose finest level is the implicit descriptor d.
// The descriptor's innermost component is paired aggLevels times in the
// first restriction (its size m coarsens to the aggLevels-fold iterated
// ceiling of m/2), producing an explicit coarse level of nc states; parts
// then describes the explicit hierarchy below that level exactly as for
// New (empty parts solve the coarse level directly with GTH).
// Construction walks every implicit block once to fix the coarse sparsity
// pattern — O(global nnz) time but only O(coarse nnz) memory, which is
// the point: the global matrix never exists.
func NewKron(d *kron.Descriptor, aggLevels int, parts []*lump.Partition, cfg Config) (*Solver, error) {
	sizes := d.Sizes()
	if len(sizes) == 0 {
		return nil, errors.New("multigrid: empty descriptor")
	}
	if aggLevels < 1 {
		return nil, errors.New("multigrid: aggLevels must be at least 1")
	}
	m := sizes[len(sizes)-1]
	mc := m
	for a := 0; a < aggLevels; a++ {
		if mc == 1 {
			return nil, fmt.Errorf("multigrid: %d pairings exceed innermost size %d", aggLevels, m)
		}
		mc = (mc + 1) / 2
	}
	if mc >= m {
		return nil, fmt.Errorf("multigrid: %d pairings do not coarsen innermost size %d", aggLevels, m)
	}
	n := d.Dim()
	nc := n / m * mc
	s := newSolver(cfg)
	sv := d.SegmentView()
	lv := &kronLevel{
		d: d, sv: sv, agg: aggLevels, m: m, mc: mc,
		y:     make([]float64, n),
		acc:   make([]float64, m),
		slot:  make([]int, nc),
		ops:   int(sv.OpsPerSweep()),
		omega: s.cfg.Damping,
		pool:  s.pool,
		xcOld: make([]float64, nc),
		xc:    make([]float64, nc),
	}
	pc, err := lv.buildCoarsePattern(nc)
	if err != nil {
		return nil, err
	}
	s.levels = append(s.levels, lv)
	s.sizes = append(s.sizes, n)
	if err := s.addExplicit(pc, parts, false); err != nil {
		return nil, err
	}
	lv.next = s.levels[1].(*csrLevel)
	return s, nil
}

// blockOf maps a fine state index to its coarse aggregate: the outer-mode
// segment is kept, the innermost (phase) digit drops agg bits — integer
// halving composed agg times is exactly one shift, ragged tails included.
func (lv *kronLevel) blockOf(i int) int {
	seg := i / lv.m
	return seg*lv.mc + (i-seg*lv.m)>>lv.agg
}

// blockSize returns the fine-state count of coarse aggregate I (the last
// phase block of each segment may be ragged).
func (lv *kronLevel) blockSize(I int) int {
	lo := (I % lv.mc) << lv.agg
	hi := lo + 1<<lv.agg
	if hi > lv.m {
		hi = lv.m
	}
	return hi - lo
}

// buildCoarsePattern fixes the coarse matrix's sparsity: the union, over
// each aggregate's fine rows, of the aggregated column indices, found by
// the walk refreshCoarse takes (same lists, same zero skip). Values start
// at zero; refreshCoarse rewrites them every cycle.
func (lv *kronLevel) buildCoarsePattern(nc int) (*spmat.CSR, error) {
	rowPtr := make([]int, nc+1)
	var colIdx []int
	seen := lv.slot // seen[J] == I+1: column J is already in row I
	for I := 0; I < nc; I++ {
		row := len(colIdx)
		seg := I / lv.mc
		p0 := (I % lv.mc) << lv.agg
		for p := p0; p < p0+lv.blockSize(I); p++ {
			for _, e := range lv.sv.From(seg) {
				cols, vals := lv.sv.Factors[e.Term].Row(p)
				for k, q := range cols {
					J := e.Dst*lv.mc + q>>lv.agg
					if vals[k] != 0 && seen[J] != I+1 {
						seen[J] = I + 1
						colIdx = append(colIdx, J)
					}
				}
			}
		}
		sort.Ints(colIdx[row:])
		rowPtr[I+1] = len(colIdx)
	}
	pc, err := spmat.NewCSR(nc, nc, rowPtr, colIdx, make([]float64, len(colIdx)))
	if err != nil {
		return nil, fmt.Errorf("multigrid: coarse pattern: %w", err)
	}
	return pc, nil
}

// refreshCoarse recomputes the coarse values with the current iterate's
// aggregation weights — Pc[I][J] = Σ_{i∈I} (x_i/‖x‖_I)·Σ_{j∈J} P_ij — and
// leaves the block masses ‖x‖_I in xcOld for the later disaggregation.
// Aggregates that carry no iterate mass fall back to uniform weights so
// the coarse chain stays stochastic. Each coarse row loads its column →
// value-index map into slot once, then its fine rows scatter straight
// into the values.
func (lv *kronLevel) refreshCoarse(x []float64) {
	pc := lv.next.p
	vals := pc.RawValues()
	clear(vals)
	clear(lv.xcOld)
	for i, v := range x {
		lv.xcOld[lv.blockOf(i)] += v
	}
	row := 0 // value index of coarse row I's first entry
	for I, mass := range lv.xcOld {
		cols, _ := pc.Row(I)
		for k, J := range cols {
			lv.slot[J] = row + k
		}
		row += len(cols)
		seg := I / lv.mc
		p0 := (I % lv.mc) << lv.agg
		size := lv.blockSize(I)
		for p := p0; p < p0+size; p++ {
			w := 1 / float64(size)
			if mass > 0 {
				w = x[seg*lv.m+p] / mass
			}
			if w == 0 {
				continue
			}
			for _, e := range lv.sv.From(seg) {
				fc, fv := lv.sv.Factors[e.Term].Row(p)
				base := e.Dst * lv.mc
				cw := w * e.Coeff
				for k, q := range fc {
					if g := fv[k]; g != 0 {
						vals[lv.slot[base+q>>lv.agg]] += cw * g
					}
				}
			}
		}
	}
}

// smooth runs steps lexicographic relaxed Gauss–Seidel sweeps on the
// implicit level, x_i ← (1−ω)x_i + ω·Σ_{j≠i} P_ji x_j / (1 − P_ii), one
// segment at a time: the inflow from the other segments, at their current
// values (earlier segments already swept), is scattered through the
// innermost factor rows into acc, then the diagonal block is swept point
// by point through the transposed innermost rows. Every update reads the values gaussSeidel
// reads on the materialized Pᵀ, so the two agree up to summation order.
// Each sweep is accounted on the pool with its multiply-add count.
func (lv *kronLevel) smooth(x []float64, steps int) {
	omega := lv.omega
	sv, m, acc := lv.sv, lv.m, lv.acc
	for t := 0; t < steps; t++ {
		start := time.Now()
		for s := 0; s < sv.Segments; s++ {
			clear(acc)
			for _, e := range sv.Into(s) {
				f := sv.Factors[e.Term]
				for p, xp := range x[e.Src*m : (e.Src+1)*m] {
					if xp == 0 {
						continue
					}
					cx := e.Coeff * xp
					cols, vals := f.Row(p)
					for k, q := range cols {
						acc[q] += cx * vals[k]
					}
				}
			}
			xs := x[s*m : (s+1)*m]
			within := sv.Within(s)
			for q := range xs {
				sum, diag := acc[q], 0.0
				for _, e := range within {
					cols, vals := sv.FactorsT[e.Term].Row(q)
					for k, p := range cols {
						if p == q {
							diag += e.Coeff * vals[k]
						} else {
							sum += e.Coeff * vals[k] * xs[p]
						}
					}
				}
				if 1-diag < 1e-14 {
					continue // absorbing-in-isolation state: leave mass as is
				}
				gs := sum / (1 - diag)
				xs[q] = (1-omega)*xs[q] + omega*gs
			}
		}
		normalize(x)
		lv.pool.CountExternal(1, lv.ops, start)
	}
}

// restrict rebuilds the coarse level's values from x and hands the block
// masses to the recursion, keeping a copy for prolong.
func (lv *kronLevel) restrict(x []float64) ([]float64, error) {
	lv.refreshCoarse(x)
	lv.next.p.RefreshTranspose(lv.next.pt, lv.next.perm)
	copy(lv.xc, lv.xcOld)
	return lv.xc, nil
}

// prolong disaggregates the coarse correction multiplicatively: states in
// aggregate I are rescaled by xc[I]/xcOld[I], preserving the smoothed
// within-block shape; blocks that had no mass receive theirs uniformly.
func (lv *kronLevel) prolong(x, xc []float64) []float64 {
	for i := range x {
		I := lv.blockOf(i)
		if lv.xcOld[I] > 0 {
			x[i] *= xc[I] / lv.xcOld[I]
		} else {
			x[i] = xc[I] / float64(lv.blockSize(I))
		}
	}
	normalize(x)
	return x
}

// residual computes y = x·P with one shuffle product, accounted on the
// pool like an explicit SpMV.
func (lv *kronLevel) residual(y, x []float64) {
	start := time.Now()
	lv.d.VecMulWs(&lv.ws, y, x)
	lv.pool.CountExternal(1, int(lv.d.OpsPerMul()), start)
}
