// Package multigrid implements the multi-level aggregation solver for
// stationary distributions of large Markov chains, in the style of
// Horton & Leutenegger (the method the paper employs): a hierarchy of
// recursively lumped chains, iterate-weighted aggregation and
// disaggregation between levels, smoothing interleaved with the lumping
// and expanding steps, and an exact direct solve (subtraction-free GTH)
// at the coarsest level.
//
// Every level smooths with relaxed Gauss–Seidel: explicit (CSR) levels
// sweep the level's transpose, and a finest level kept implicit as a
// Kronecker descriptor (NewKron) sweeps the same updates segment by
// segment through the descriptor's innermost factors and their
// transposes; every level below it is explicit.
//
// The coarsening strategy is supplied by the caller as a chain of
// partitions; for the CDR model, each partition lumps pairs of consecutive
// discretized phase-error values within every (data state, filter state)
// segment, so coarse problems "resemble the original problem but with
// coarser phase error discretization", and one last partition merges the
// filter (counter) states (core.BuildHierarchy).
package multigrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

// CycleKind selects the recursion pattern between levels.
type CycleKind int

// Supported cycle kinds.
const (
	// VCycle visits each coarse level once per cycle.
	VCycle CycleKind = iota
	// WCycle visits each coarse level twice per cycle, trading work for
	// stronger coarse-grid correction.
	WCycle
)

// Config tunes the multilevel solver.
type Config struct {
	// PreSmooth is the number of relaxed Gauss–Seidel sweeps before
	// descending to the coarse level, on every level the implicit
	// Kronecker finest level included. Default 1.
	PreSmooth int
	// PostSmooth is the number of Gauss–Seidel sweeps after the
	// coarse-grid correction. Default 1.
	PostSmooth int
	// Damping is the smoother's relaxation factor ω (plain Gauss–Seidel
	// when 1, under-relaxed below 1). Default 0.9, robust on nearly
	// periodic chains.
	Damping float64
	// Tol is the convergence threshold on ‖xP − x‖₁. Default 1e-12.
	Tol float64
	// MaxCycles bounds the number of multilevel cycles. Default 200.
	MaxCycles int
	// Cycle selects V- or W-cycles. Default VCycle.
	Cycle CycleKind
	// CoarsestMaxIter bounds the fallback iterative solve when the direct
	// coarsest solve fails (e.g. the weighted coarse chain is reducible).
	// Default 500.
	CoarsestMaxIter int
	// Trace receives a span around the solve, one "iter" event per cycle
	// with the fine-level residual, and one "level" event per level visit
	// (smoothing or coarsest solve) within each cycle. Nil disables
	// tracing at zero cost.
	Trace obs.Tracer
	// Ctx, when non-nil, is checked at every cycle boundary: a canceled or
	// expired context stops the solve within one cycle and Solve returns a
	// partial-progress error wrapping ctx.Err(). Nil never cancels.
	Ctx context.Context
	// Workers is the width of the parallel team used for the sparse
	// products the cycle performs (the per-cycle residual on the finest
	// level). 0 selects runtime.GOMAXPROCS, 1 forces serial; matrices
	// below spmat.ParallelCutoff run serially regardless. The Gauss–Seidel
	// sweeps are inherently sequential and are not parallelized, the
	// implicit Kronecker level's segment sweeps included; that level's
	// residual shuffle products use the descriptor's own width
	// (kron.Descriptor.SetWorkers). Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, supplies an externally owned worker team (the
	// service path shares pooled teams across requests so concurrent
	// solves do not oversubscribe the machine). The solver never closes
	// a caller-supplied pool.
	Pool *spmat.Pool
	// Faults arms the multigrid.cycle injection point, hit at every cycle
	// boundary alongside the Ctx check. Nil (the default) disables
	// injection at the cost of one branch per cycle.
	Faults *faults.Injector
	// Refreshable prepares the solver for in-place value refreshes of the
	// finest matrix (RefreshFine): level 0 keeps a solver-owned transpose
	// with a refresh permutation instead of sharing the matrix's lazily
	// cached one, and the per-cycle residual gathers over that owned
	// transpose. A one-shot solver leaves this false and shares the cache.
	Refreshable bool
}

func (c Config) withDefaults() Config {
	// Stamp the request's trace identity (when Ctx carries one) onto every
	// span, iter, and level event the cycle emits.
	c.Trace = obs.StampFromContext(c.Ctx, c.Trace)
	if c.PreSmooth <= 0 {
		c.PreSmooth = 1
	}
	if c.PostSmooth <= 0 {
		c.PostSmooth = 1
	}
	if c.Damping <= 0 || c.Damping > 1 {
		c.Damping = 0.9
	}
	if c.Tol <= 0 {
		c.Tol = 1e-12
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 200
	}
	if c.CoarsestMaxIter <= 0 {
		c.CoarsestMaxIter = 500
	}
	return c
}

// Result reports a multilevel solve.
type Result struct {
	// Pi is the computed stationary distribution.
	Pi []float64
	// Cycles is the number of multilevel cycles performed.
	Cycles int
	// Residual is the final ‖πP − π‖₁.
	Residual float64
	// Converged reports whether Residual ≤ Tol.
	Converged bool
	// LevelSizes lists the state-space size of every level, finest first.
	LevelSizes []int
	// ResidualHistory records the residual after each cycle.
	ResidualHistory []float64
	// LevelStats attributes the solve's work per level, finest first:
	// visit counts across all cycles and wall time inside the level's
	// smoother (or coarsest direct solve).
	LevelStats []LevelStat
}

// LevelStat is the per-level work record of one solve.
type LevelStat struct {
	// Level is the hierarchy depth, 0 = finest.
	Level int `json:"level"`
	// Size is the level's state count.
	Size int `json:"size"`
	// Visits counts how often the cycle entered the level.
	Visits int `json:"visits"`
	// SmoothNS is wall time in the level's smoothing (finest/middle) or
	// direct GTH solve (coarsest).
	SmoothNS int64 `json:"smooth_ns"`
}

func (r Result) String() string {
	return fmt.Sprintf("cycles=%d residual=%.3e converged=%v levels=%v",
		r.Cycles, r.Residual, r.Converged, r.LevelSizes)
}

// level is one rung of the hierarchy. The cycle reaches every level above
// the coarsest only through these four operations, so the explicit CSR
// level and the implicit Kronecker level (kron.go) share one Solve, one
// cycle, one cost path and one trace path.
type level interface {
	// smooth runs steps relaxation sweeps on x in place, keeping it
	// normalized.
	smooth(x []float64, steps int)
	// restrict rewrites the next level's matrix values with x's
	// aggregation weights (and refreshes that level's transpose), then
	// returns x restricted to the next level's states.
	restrict(x []float64) ([]float64, error)
	// prolong disaggregates the corrected coarse iterate xc back onto x
	// and returns x.
	prolong(x, xc []float64) []float64
	// residual computes y = x·P; the solve calls it on level 0 only.
	residual(y, x []float64)
}

// csrLevel is an explicit level of the hierarchy: the level's matrix, its
// transpose (refreshed in place on coarse levels, whose values change
// every cycle), the lumping plan down to the next level, and the coarse
// iterate buffer. Everything is allocated once at construction so the
// cycles run allocation-free.
type csrLevel struct {
	p     *spmat.CSR      // level matrix; the top level's is the caller's, others are plan-owned
	pt    *spmat.CSR      // transpose of p, used by the Gauss–Seidel smoother
	perm  []int           // p→pt value permutation for in-place refresh; nil when pt is shared
	plan  *lump.Plan      // lumping onto the next level; nil at the coarsest
	part  *lump.Partition // the partition plan lumps by; nil at the coarsest
	xc    []float64       // coarse iterate buffer; nil at the coarsest
	next  *csrLevel       // the level plan.Coarse() belongs to; nil at the coarsest
	omega float64         // smoother relaxation factor
	pool  *spmat.Pool     // team for the level-0 residual product
}

// smooth performs relaxed Gauss–Seidel sweeps over the level's transpose.
func (lv *csrLevel) smooth(x []float64, steps int) { gaussSeidel(lv.pt, x, steps, lv.omega) }

// restrict refreshes the next level's values through the lumping plan
// and aggregates x into the coarse iterate buffer.
func (lv *csrLevel) restrict(x []float64) ([]float64, error) {
	if err := lv.plan.Update(x); err != nil {
		return nil, err
	}
	lv.next.p.RefreshTranspose(lv.next.pt, lv.next.perm)
	return lv.part.Restrict(lv.xc, x), nil
}

// prolong disaggregates with the plan's iterate weights.
func (lv *csrLevel) prolong(x, xc []float64) []float64 {
	return lv.part.Prolong(x, xc, lv.plan.Weights())
}

// residual gathers over the level's transpose: for a shared transpose
// that is the matrix's own cache (the object VecMul would use), in
// refreshable mode the solver-owned, value-current copy.
func (lv *csrLevel) residual(y, x []float64) { lv.pool.VecMulT(lv.p, lv.pt, y, x) }

// Solver is a configured multilevel hierarchy for one transition matrix,
// explicit (New) or with an implicit Kronecker finest level (NewKron).
type Solver struct {
	cfg      Config
	levels   []level   // finest first; the last is coarsest
	coarsest *csrLevel // levels[len(levels)-1], solved directly
	sizes    []int     // state count per level, finest first
	gth      spmat.GTHWorkspace
	pool     *spmat.Pool
	curCycle int // cycle number stamped on level-visit trace events

	// rawTrace is the caller's tracer before trace-identity stamping, kept
	// so SetSolveContext can restamp per-solve contexts on a reused solver.
	rawTrace obs.Tracer

	// Per-level work attribution, preallocated at construction and reset
	// per Solve so the cycles stay allocation-free.
	levelVisits []int
	levelWorkNS []int64

	// resBufs holds the product buffers of Residuals, grown on demand and
	// reused across calls.
	resBufs [][]float64
}

// newSolver applies the configuration defaults and binds the worker team;
// the constructors then append the levels.
func newSolver(cfg Config) *Solver {
	s := &Solver{rawTrace: cfg.Trace, cfg: cfg.withDefaults()}
	s.pool = s.cfg.Pool
	if s.pool == nil {
		s.pool = spmat.NewPool(s.cfg.Workers)
	}
	return s
}

// New validates the partition chain against the matrix and returns a
// solver. parts[k] must partition the state space of level k (level 0 is
// p itself; level k+1 has parts[k].NumBlocks() states). An empty partition
// chain degenerates to a smoothed direct solve and is rejected for
// matrices beyond the coarsest size; supply at least one level for real
// problems.
//
// New builds the whole hierarchy structurally — coarse patterns, lumping
// plans, transposes and iterate buffers — so that Solve's cycles only
// rewrite values in place: after New, a cycle performs no heap allocation.
func New(p *spmat.CSR, parts []*lump.Partition, cfg Config) (*Solver, error) {
	n, m := p.Dims()
	if n != m {
		return nil, errors.New("multigrid: TPM must be square")
	}
	s := newSolver(cfg)
	// Unless the solver is refreshable the finest values never change, so
	// level 0 shares the chain-owned cached transpose.
	if err := s.addExplicit(p, parts, !s.cfg.Refreshable); err != nil {
		return nil, err
	}
	return s, nil
}

// addExplicit appends the explicit levels rooted at p — p itself, then one
// lumped level per partition — and completes the hierarchy. The top level
// shares p's cached transpose when shareTop is set; every other level owns
// a transpose with a refresh permutation, since the cycle rewrites its
// values.
func (s *Solver) addExplicit(p *spmat.CSR, parts []*lump.Partition, shareTop bool) error {
	size := dimOf(p)
	for k, part := range parts {
		if part.NumStates() != size {
			return fmt.Errorf("multigrid: partition %d covers %d states, level has %d",
				k, part.NumStates(), size)
		}
		if part.NumBlocks() >= size {
			return fmt.Errorf("multigrid: partition %d does not coarsen (%d -> %d)",
				k, size, part.NumBlocks())
		}
		size = part.NumBlocks()
	}
	top := len(s.levels)
	var prev *csrLevel
	cur := p
	for k := 0; k <= len(parts); k++ {
		lv := &csrLevel{p: cur, omega: s.cfg.Damping, pool: s.pool}
		if k == 0 && shareTop {
			lv.pt = cur.T()
		} else {
			lv.pt, lv.perm = cur.TransposeWithPerm()
		}
		if prev != nil {
			prev.next = lv
		}
		s.levels = append(s.levels, lv)
		s.sizes = append(s.sizes, dimOf(cur))
		if k < len(parts) {
			plan, err := lump.NewPlan(cur, parts[k])
			if err != nil {
				return fmt.Errorf("multigrid: level %d: %w", top+k, err)
			}
			lv.plan, lv.part = plan, parts[k]
			lv.xc = make([]float64, parts[k].NumBlocks())
			cur = plan.Coarse()
		}
		prev = lv
	}
	s.coarsest = prev
	s.levelVisits = make([]int, len(s.levels))
	s.levelWorkNS = make([]int64, len(s.levels))
	return nil
}

// LevelSizes returns the state count of every level, finest first.
func (s *Solver) LevelSizes() []int {
	return append([]int(nil), s.sizes...)
}

func dimOf(p *spmat.CSR) int {
	n, _ := p.Dims()
	return n
}

// normalize rescales x to unit mass (a zero vector is left as is).
func normalize(x []float64) {
	norm := 0.0
	for _, v := range x {
		norm += v
	}
	if norm > 0 {
		inv := 1 / norm
		for i := range x {
			x[i] *= inv
		}
	}
}

// gaussSeidel performs steps relaxed Gauss–Seidel sweeps on (I − Pᵀ)x = 0,
// x_i ← (1−ω)x_i + ω·Σ_{j≠i} P_ji x_j / (1 − P_ii), keeping x normalized.
// Gauss–Seidel damps the within-aggregate (high-frequency) error far more
// effectively than power iteration, which is what the aggregation cycle
// relies on: the coarse correction fixes block masses, the smoother fixes
// the shape inside blocks. pt is Pᵀ in CSR form.
func gaussSeidel(pt *spmat.CSR, x []float64, steps int, omega float64) {
	n := len(x)
	for t := 0; t < steps; t++ {
		for i := 0; i < n; i++ {
			cols, vals := pt.Row(i)
			sum, diag := 0.0, 0.0
			for k, j := range cols {
				if j == i {
					diag = vals[k]
				} else {
					sum += vals[k] * x[j]
				}
			}
			if 1-diag < 1e-14 {
				continue // absorbing-in-isolation state: leave mass as is
			}
			gs := sum / (1 - diag)
			x[i] = (1-omega)*x[i] + omega*gs
		}
		normalize(x)
	}
}

// coarsestSolve solves the stationary distribution of the coarsest chain
// exactly with GTH (through the reusable dense workspace), falling back to
// Gauss–Seidel sweeps when the weighted coarse chain is numerically
// reducible. The result is written into x.
func (s *Solver) coarsestSolve(x []float64) []float64 {
	lv := s.coarsest
	pi, err := s.gth.StationaryCSR(lv.p)
	if err == nil {
		copy(x, pi)
		return x
	}
	gaussSeidel(lv.pt, x, s.cfg.CoarsestMaxIter, s.cfg.Damping)
	return x
}

// cycle runs one multilevel cycle at the given level and returns the
// improved iterate. All buffers — coarse matrices, transposes, iterate
// vectors — live in the per-level workspaces; a cycle allocates nothing.
func (s *Solver) cycle(k int, x []float64) ([]float64, error) {
	obs.LevelEvent(s.cfg.Trace, "multigrid", s.curCycle, k, s.sizes[k])
	s.levelVisits[k]++
	if k == len(s.levels)-1 {
		start := time.Now()
		x = s.coarsestSolve(x)
		s.levelWorkNS[k] += time.Since(start).Nanoseconds()
		return x, nil
	}
	lv := s.levels[k]
	start := time.Now()
	lv.smooth(x, s.cfg.PreSmooth)
	s.levelWorkNS[k] += time.Since(start).Nanoseconds()

	xc, err := lv.restrict(x)
	if err != nil {
		return nil, fmt.Errorf("multigrid: level %d: %w", k, err)
	}
	visits := 1
	if s.cfg.Cycle == WCycle {
		visits = 2
	}
	for v := 0; v < visits; v++ {
		xc, err = s.cycle(k+1, xc)
		if err != nil {
			return nil, err
		}
	}
	x = lv.prolong(x, xc)
	start = time.Now()
	lv.smooth(x, s.cfg.PostSmooth)
	s.levelWorkNS[k] += time.Since(start).Nanoseconds()
	return x, nil
}

// levelStats snapshots the per-level attribution accumulated since the
// last reset, finest first.
func (s *Solver) levelStats() []LevelStat {
	stats := make([]LevelStat, len(s.levels))
	for k := range s.levels {
		stats[k] = LevelStat{Level: k, Size: s.sizes[k], Visits: s.levelVisits[k], SmoothNS: s.levelWorkNS[k]}
	}
	return stats
}

// workspaceBytes estimates the hierarchy's heap footprint beyond the
// caller's finest operator: coarse matrices, transposes, iterate buffers
// and, on an implicit level, its vectors, shuffle scratch and segment
// view.
func (s *Solver) workspaceBytes() int64 {
	var b int64
	for k, lv := range s.levels {
		switch lv := lv.(type) {
		case *csrLevel:
			if k > 0 {
				b += lv.p.MemoryBytes()
			}
			b += lv.pt.MemoryBytes()
			b += int64(len(lv.perm))*8 + int64(len(lv.xc))*8
		case *kronLevel:
			b += int64(len(lv.y)+len(lv.acc)+len(lv.slot)+len(lv.xcOld)+len(lv.xc)) * 8
			b += 2 * int64(len(lv.y)) * 8 // shuffle ping-pong scratch
			b += lv.sv.MemoryBytes()
		}
	}
	return b
}

// Solve runs multilevel cycles from x0 (uniform when nil) until the
// residual criterion is met or MaxCycles is exhausted.
func (s *Solver) Solve(x0 []float64) (Result, error) {
	n := s.sizes[0]
	x := make([]float64, n)
	if x0 == nil {
		for i := range x {
			x[i] = 1 / float64(n)
		}
	} else {
		if len(x0) != n {
			return Result{}, fmt.Errorf("multigrid: x0 length %d, want %d", len(x0), n)
		}
		copy(x, x0)
		sum := 0.0
		for _, v := range x {
			if v < 0 {
				return Result{}, errors.New("multigrid: negative initial mass")
			}
			sum += v
		}
		if sum <= 0 {
			return Result{}, errors.New("multigrid: zero initial mass")
		}
		for i := range x {
			x[i] /= sum
		}
	}

	res := Result{
		LevelSizes:      s.LevelSizes(),
		ResidualHistory: make([]float64, 0, s.cfg.MaxCycles),
	}
	y := make([]float64, n)
	var err error
	endSpan := obs.StartSpan(s.cfg.Trace, "multigrid")
	defer endSpan()
	// Cost accounting: one meter lookup per solve, never per cycle. The
	// deferred attribution also covers the error returns, so a canceled
	// or faulted solve still reports the work it did.
	for k := range s.levels {
		s.levelVisits[k], s.levelWorkNS[k] = 0, 0
	}
	meter := cost.FromContext(s.cfg.Ctx)
	if meter != nil {
		stats0 := s.pool.Stats()
		meter.SampleGoroutines()
		defer func() {
			meter.AddCycles(int64(res.Cycles))
			meter.AddPoolDelta(stats0, s.pool.Stats())
			meter.AddWorkspaceBytes(s.workspaceBytes())
			stats := s.levelStats()
			lc := make([]cost.LevelCost, len(stats))
			for i, st := range stats {
				lc[i] = cost.LevelCost{Level: st.Level, Size: st.Size, Visits: st.Visits, SmoothNS: st.SmoothNS}
			}
			meter.SetLevels(lc)
			meter.SampleGoroutines()
		}()
	}
	for c := 1; c <= s.cfg.MaxCycles; c++ {
		if s.cfg.Ctx != nil {
			if cerr := s.cfg.Ctx.Err(); cerr != nil {
				return Result{}, fmt.Errorf("multigrid: solve stopped after %d of %d cycles (residual %.3e): %w",
					res.Cycles, s.cfg.MaxCycles, res.Residual, cerr)
			}
		}
		if ferr := s.cfg.Faults.FireCtx(s.cfg.Ctx, "multigrid.cycle"); ferr != nil {
			return Result{}, fmt.Errorf("multigrid: solve stopped after %d of %d cycles (residual %.3e): %w",
				res.Cycles, s.cfg.MaxCycles, res.Residual, ferr)
		}
		s.curCycle = c
		x, err = s.cycle(0, x)
		if err != nil {
			return Result{}, err
		}
		s.levels[0].residual(y, x)
		r := 0.0
		for i := range x {
			r += math.Abs(y[i] - x[i])
		}
		res.Cycles = c
		res.Residual = r
		res.ResidualHistory = append(res.ResidualHistory, r)
		obs.IterEvent(s.cfg.Trace, "multigrid", c, r)
		meter.AddResidual(r)
		if r <= s.cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	res.LevelStats = s.levelStats()
	return res, nil
}

// RefreshFine rewrites the finest level's values in place from src, which
// must have the identical sparsity pattern (the sweep engine checks with
// spmat.SamePattern before calling; this only validates dimensions). The
// level-0 transpose is refreshed through its permutation; coarse levels
// need nothing — their values are recomputed from the fine iterate every
// cycle anyway. Requires Config.Refreshable and an explicit finest level.
func (s *Solver) RefreshFine(src *spmat.CSR) error {
	lv, ok := s.levels[0].(*csrLevel)
	if !s.cfg.Refreshable || !ok {
		return errors.New("multigrid: RefreshFine on a non-refreshable solver")
	}
	dst := lv.p.RawValues()
	vals := src.RawValues()
	if len(vals) != len(dst) {
		return fmt.Errorf("multigrid: RefreshFine value count %d, want %d", len(vals), len(dst))
	}
	copy(dst, vals)
	lv.p.RefreshTranspose(lv.pt, lv.perm)
	return nil
}

// SetCycle switches the recursion pattern for subsequent Solve calls. The
// hierarchy is cycle-kind independent, so flipping between the robust
// W-cycle (cold starts) and the cheaper V-cycle (warm-started continuation
// points) on a reused solver is safe at any quiescent point.
func (s *Solver) SetCycle(k CycleKind) { s.cfg.Cycle = k }

// SetSolveContext rebinds the context consulted at every cycle boundary —
// cancellation, cost metering, fault injection — and restamps the trace
// identity, so one long-lived solver can serve a sequence of per-request
// solves. Call between Solves, never during one.
func (s *Solver) SetSolveContext(ctx context.Context) {
	s.cfg.Ctx = ctx
	s.cfg.Trace = obs.StampFromContext(ctx, s.rawTrace)
}

// Residuals evaluates ‖xP − x‖₁ for several candidate vectors in one
// blocked traversal of the fine matrix (Pool.MulVecs over the level-0
// transpose) — the sweep engine's seed selection: score the previous
// point's solution, an extrapolation, and the uniform vector together,
// then warm-start from the best. Candidates must be normalized
// distributions of the fine dimension. Requires an explicit finest level
// (New).
func (s *Solver) Residuals(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	n := s.sizes[0]
	for len(s.resBufs) < len(xs) {
		s.resBufs = append(s.resBufs, make([]float64, n))
	}
	ys := s.resBufs[:len(xs)]
	s.pool.MulVecs(s.levels[0].(*csrLevel).pt, ys, xs)
	out := make([]float64, len(xs))
	for b := range xs {
		r := 0.0
		for i := range xs[b] {
			r += math.Abs(ys[b][i] - xs[b][i])
		}
		out[b] = r
	}
	return out
}

// BuildPairHierarchy constructs the partition chain for a state space laid
// out as `segments` contiguous segments of `segLen` entries each (in the
// CDR model: one segment per (data, filter) state pair, phase index
// fastest). Each level pairs consecutive entries within every segment
// until the segment length drops to at most minSegLen. It returns the
// partitions, finest first.
func BuildPairHierarchy(segLen, segments, minSegLen int) ([]*lump.Partition, error) {
	if segLen <= 0 || segments <= 0 {
		return nil, fmt.Errorf("multigrid: bad layout %dx%d", segLen, segments)
	}
	if minSegLen < 1 {
		minSegLen = 1
	}
	var parts []*lump.Partition
	cur := segLen
	for cur > minSegLen {
		part, err := lump.PairsWithinSegments(cur, segments)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		cur = (cur + 1) / 2
	}
	return parts, nil
}
