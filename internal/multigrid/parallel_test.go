package multigrid

import (
	"runtime"
	"testing"

	"cdrstoch/internal/spmat"
)

// forceParallel drops the serial-fallback cutoff so the small test
// hierarchies exercise the parallel kernels, restoring it afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	old := spmat.ParallelCutoff
	spmat.ParallelCutoff = 0
	t.Cleanup(func() { spmat.ParallelCutoff = old })
}

// Multigrid only parallelizes the residual products; smoothing is the
// sequential Gauss–Seidel sweep at every width. Results must therefore
// agree between serial and any team width to well below the tolerance.
func TestSolveWorkersMatchSerial(t *testing.T) {
	forceParallel(t)
	n := 64
	p := randomWalkChain(n, 0.3, 0.25)
	parts, err := BuildPairHierarchy(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) []float64 {
		t.Helper()
		s, err := New(p, parts, Config{Tol: 1e-13, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(nil)
		if err != nil || !res.Converged {
			t.Fatalf("workers=%d: %v %v", workers, err, res)
		}
		return res.Pi
	}
	serial := solve(1)
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		if d := maxAbsDiff(solve(w), serial); d > 1e-12 {
			t.Errorf("workers=%d differs from serial by %g", w, d)
		}
	}
}

// A caller-supplied pool must be used as-is and never closed by the solver.
func TestSolverSharedPoolSurvives(t *testing.T) {
	forceParallel(t)
	pool := spmat.NewPool(2)
	defer pool.Close()
	n := 32
	p := randomWalkChain(n, 0.4, 0.1)
	parts, _ := BuildPairHierarchy(n, 1, 2)
	for trial := 0; trial < 3; trial++ {
		s, err := New(p, parts, Config{Tol: 1e-12, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Solve(nil); err != nil || !res.Converged {
			t.Fatalf("trial %d: %v %v", trial, err, res)
		}
	}
	// The pool must still dispatch after the solvers are gone.
	y := make([]float64, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	pool.MulVec(p, y, x)
}

// After the first cycle warms the hierarchy, further cycles must not
// allocate: the structural plans, transposes and coarse iterates are all
// preallocated at construction, for the explicit and the implicit
// Kronecker finest level alike.
func TestCycleAllocsDoNotScaleWithCycles(t *testing.T) {
	n := 64
	p := randomWalkChain(n, 0.26, 0.25)
	parts, err := BuildPairHierarchy(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := kronTestDescriptor(t, 27, 16)
	kparts, err := BuildPairHierarchy(4, d.Dim()/16, 2)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(cfg Config) (*Solver, error){
		"explicit": func(cfg Config) (*Solver, error) { return New(p, parts, cfg) },
		"kron":     func(cfg Config) (*Solver, error) { return NewKron(d, 2, kparts, cfg) },
	}
	for name, build := range builders {
		measure := func(cycles int) float64 {
			return testing.AllocsPerRun(10, func() {
				s, err := build(Config{Tol: 1e-300, MaxCycles: cycles, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Solve(nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		short := measure(2)
		long := measure(20)
		// Setup dominates; the 18 extra cycles may not add allocations.
		if long > short {
			t.Errorf("%s: allocs grew with cycle count: %v (2 cycles) -> %v (20 cycles)", name, short, long)
		}
	}
}
