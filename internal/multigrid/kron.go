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
// Kronecker descriptor. Smoothing runs matrix-free through the
// descriptor's shuffle products (weighted Jacobi — the one splitting that
// needs only y = x·P and the diagonal, both of which a descriptor provides
// without a transpose). Restriction lumps the innermost tensor mode — the
// phase-error discretization in the CDR model — agg pairings at once into
// the explicit coarse level below, roughly 2^agg smaller than the global
// nnz. That level's sparsity pattern is fixed at construction; each cycle
// rewrites only its values with the iterate-weighted (Horton–Leutenegger)
// aggregation, so cycles allocate nothing.
type kronLevel struct {
	d   *kron.Descriptor
	agg int // innermost-mode pairings folded into the restriction
	m   int // fine innermost (phase) size
	mc  int // coarse innermost size after agg pairings

	diag  []float64 // fine diagonal, cached at construction
	ws    kron.Workspace
	y     []float64 // fine product buffer
	it    *kron.RowIter
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
// Construction enumerates every implicit fine row once to fix the coarse
// sparsity pattern — O(global nnz) time but only O(coarse nnz) memory,
// which is the point: the global matrix never exists.
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
	lv := &kronLevel{
		d: d, agg: aggLevels, m: m, mc: mc,
		diag:  d.Diag(),
		y:     make([]float64, n),
		it:    d.NewRowIter(),
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
// each aggregate's fine rows, of the aggregated column indices. Values
// start at zero; refreshCoarse rewrites them every cycle.
func (lv *kronLevel) buildCoarsePattern(nc int) (*spmat.CSR, error) {
	rowPtr := make([]int, nc+1)
	var colIdx []int
	var scratch []int
	visit := func(j int, _ float64) {
		scratch = append(scratch, lv.blockOf(j))
	}
	for I := 0; I < nc; I++ {
		scratch = scratch[:0]
		seg := I / lv.mc
		lo := (I % lv.mc) << lv.agg
		for p := lo; p < lo+lv.blockSize(I); p++ {
			lv.it.Row(seg*lv.m+p, visit)
		}
		sort.Ints(scratch)
		for k, J := range scratch {
			if k == 0 || J != scratch[k-1] {
				colIdx = append(colIdx, J)
			}
		}
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
// the coarse chain stays stochastic.
func (lv *kronLevel) refreshCoarse(x []float64) {
	pc := lv.next.p
	vals := pc.RawValues()
	clear(vals)
	clear(lv.xcOld)
	for i, v := range x {
		lv.xcOld[lv.blockOf(i)] += v
	}
	var curI int
	var curW float64
	visit := func(j int, v float64) {
		vals[pc.EntryIndex(curI, lv.blockOf(j))] += curW * v
	}
	for i := range x {
		curI = lv.blockOf(i)
		if mass := lv.xcOld[curI]; mass > 0 {
			curW = x[i] / mass
		} else {
			curW = 1 / float64(lv.blockSize(curI))
		}
		if curW == 0 {
			continue
		}
		lv.it.Row(i, visit)
	}
}

// smooth runs steps weighted-Jacobi sweeps on the implicit level:
// x_i ← (1−ω)x_i + ω·((x·P)_i − P_ii·x_i)/(1 − P_ii), the transpose-free
// splitting, with one shuffle product per sweep accounted on the pool.
func (lv *kronLevel) smooth(x []float64, steps int) {
	omega := lv.omega
	for t := 0; t < steps; t++ {
		lv.residual(lv.y, x)
		for i := range x {
			den := 1 - lv.diag[i]
			if den < 1e-14 {
				continue // absorbing-in-isolation state: leave mass as is
			}
			gs := (lv.y[i] - lv.diag[i]*x[i]) / den
			x[i] = (1-omega)*x[i] + omega*gs
		}
		normalize(x)
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
