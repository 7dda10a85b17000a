package multigrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

func randomStochasticFactor(n int, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64() + 1e-3
			s += row[j]
		}
		for j := range row {
			tr.Add(i, j, row[j]/s)
		}
	}
	return tr.ToCSR()
}

// kronTestDescriptor builds a two-term stochastic mixture over a
// CDR-shaped component layout (two small outer modes, a wide innermost
// phase mode).
func kronTestDescriptor(t *testing.T, seed int64, phase int) *kron.Descriptor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func() []*spmat.CSR {
		return []*spmat.CSR{
			randomStochasticFactor(2, rng),
			randomStochasticFactor(3, rng),
			randomStochasticFactor(phase, rng),
		}
	}
	d, err := kron.NewDescriptor([]kron.Term{
		{Coeff: 0.4, Factors: mk()},
		{Coeff: 0.6, Factors: mk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKronSolverMatchesDirect(t *testing.T) {
	d := kronTestDescriptor(t, 21, 16)
	ref, err := spmat.StationaryGTHCSR(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	segs := d.Dim() / 16
	// Two pairings in the implicit restriction (phase 16 → 4), then the
	// explicit hierarchy pairs down to 2.
	parts, err := BuildPairHierarchy(4, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-13, Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %v", res)
	}
	for i := range ref {
		if math.Abs(res.Pi[i]-ref[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %g, want %g (diff %g)", i, res.Pi[i], ref[i], res.Pi[i]-ref[i])
		}
	}
	if len(res.LevelSizes) < 2 || res.LevelSizes[0] != d.Dim() {
		t.Fatalf("level sizes %v", res.LevelSizes)
	}
}

func TestKronSolverEmptyPartsUsesGTH(t *testing.T) {
	d := kronTestDescriptor(t, 22, 8)
	ref, err := spmat.StationaryGTHCSR(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	// Three pairings collapse phase 8 → 1; the coarse chain (one state per
	// outer segment pair) is solved directly.
	s, err := NewKron(d, 3, nil, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %v", res)
	}
	for i := range ref {
		if math.Abs(res.Pi[i]-ref[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %g, want %g", i, res.Pi[i], ref[i])
		}
	}
}

func TestKronSolverWarmStart(t *testing.T) {
	d := kronTestDescriptor(t, 23, 8)
	s, err := NewKron(d, 2, nil, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(cold.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || warm.Cycles > cold.Cycles {
		t.Fatalf("warm start did not help: cold %d cycles, warm %d", cold.Cycles, warm.Cycles)
	}
}

func TestKronSolverValidation(t *testing.T) {
	d := kronTestDescriptor(t, 24, 8)
	if _, err := NewKron(d, 0, nil, Config{}); err == nil {
		t.Fatal("aggLevels 0 accepted")
	}
	if _, err := NewKron(d, 4, nil, Config{}); err == nil {
		// 4 pairings of phase 8 do not coarsen past 1.
		t.Fatal("over-deep aggregation accepted")
	}
	s, err := NewKron(d, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(make([]float64, 3)); err == nil {
		t.Fatal("bad x0 length accepted")
	}
}

func TestKronSolverCancellation(t *testing.T) {
	d := kronTestDescriptor(t, 25, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewKron(d, 2, nil, Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestKronSolverCostAccounting(t *testing.T) {
	d := kronTestDescriptor(t, 26, 8)
	// Two pairings (phase 8 → 2), then one explicit level pairs down to 1.
	parts, err := BuildPairHierarchy(2, d.Dim()/8, 1)
	if err != nil {
		t.Fatal(err)
	}
	meter := cost.NewMeter()
	ctx := cost.ContextWith(context.Background(), meter)
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-12, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := meter.Finish()
	if rep.Cycles != int64(res.Cycles) {
		t.Fatalf("meter cycles %d, result %d", rep.Cycles, res.Cycles)
	}
	// At least one shuffle product per smoothing step and residual check.
	if rep.Pool.SpMVs < int64(res.Cycles)*3 {
		t.Fatalf("SpMVs %d for %d cycles", rep.Pool.SpMVs, res.Cycles)
	}
	if rep.WorkspaceBytes <= 0 {
		t.Fatal("no workspace bytes reported")
	}
	// One level report for the whole hierarchy: implicit, aggregated, and
	// the explicit level below.
	if len(res.LevelSizes) != 3 || len(rep.Levels) != 3 || len(res.LevelStats) != 3 {
		t.Fatalf("levels: sizes %v, meter %d, stats %d", res.LevelSizes, len(rep.Levels), len(res.LevelStats))
	}
}

// randomSparseFactor returns an n×n factor with entries in [0, 1/n):
// sparse, with some rows left empty and no stochasticity implied.
func randomSparseFactor(n int, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			continue // empty row
		}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				tr.Add(i, j, rng.Float64()/float64(n))
			}
		}
	}
	return tr.ToCSR()
}

// TestKronSolverGaussSeidelMatchesMaterialized pins the segment-wise
// smoother to the explicit one: one and three sweeps of the implicit
// level's Gauss–Seidel against gaussSeidel on the materialized Pᵀ, on
// random descriptors with one and three modes, a zero-coefficient term,
// empty factor rows and a ragged innermost size.
func TestKronSolverGaussSeidelMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sizes := range [][]int{{13}, {3, 2, 7}, {2, 4, 9}} {
		var terms []kron.Term
		for ti := 0; ti < 3; ti++ {
			f := make([]*spmat.CSR, len(sizes))
			for c, n := range sizes {
				f[c] = randomSparseFactor(n, rng)
			}
			coeff := rng.Float64()
			if ti == 1 {
				coeff = 0
			}
			terms = append(terms, kron.Term{Coeff: coeff, Factors: f})
		}
		d, err := kron.NewDescriptor(terms)
		if err != nil {
			t.Fatal(err)
		}
		pt := d.ToCSR().T()
		s, err := NewKron(d, 1, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		lv := s.levels[0].(*kronLevel)
		for _, steps := range []int{1, 3} {
			x := make([]float64, d.Dim())
			for i := range x {
				x[i] = rng.Float64() + 0.01
			}
			normalize(x)
			want := append([]float64(nil), x...)
			lv.smooth(x, steps)
			gaussSeidel(pt, want, steps, s.cfg.Damping)
			scale := 0.0
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			if diff := maxAbsDiff(x, want); diff > 1e-13*scale {
				t.Errorf("sizes %v, %d sweeps: max diff %g (scale %g)", sizes, steps, diff, scale)
			}
		}
	}
}

// TestKronSolverMatchesExplicitFold runs the kron solver against the
// explicit solver on the materialized matrix, with the implicit level's
// two-pairing restriction written out as one explicit partition: the two
// take the same cycles, so they must converge in the same number of
// cycles to the same π.
func TestKronSolverMatchesExplicitFold(t *testing.T) {
	for _, phase := range []int{16, 7} {
		d := kronTestDescriptor(t, 32, phase)
		mc := (phase + 3) / 4
		segs := d.Dim() / phase
		blockOf := make([]int, d.Dim())
		for i := range blockOf {
			blockOf[i] = i/phase*mc + (i%phase)>>2
		}
		fold, err := lump.NewPartition(blockOf)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := BuildPairHierarchy(mc, segs, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Tol: 1e-13, Cycle: WCycle, PreSmooth: 2, PostSmooth: 2}
		ks, err := NewKron(d, 2, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		es, err := New(d.ToCSR(), append([]*lump.Partition{fold}, parts...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		kres, err := ks.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := es.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !kres.Converged || !eres.Converged {
			t.Fatalf("phase %d: kron %v, explicit %v", phase, kres, eres)
		}
		if kres.Cycles != eres.Cycles {
			t.Errorf("phase %d: kron %d cycles, explicit %d", phase, kres.Cycles, eres.Cycles)
		}
		if diff := maxAbsDiff(kres.Pi, eres.Pi); diff > 1e-12 {
			t.Errorf("phase %d: π differs by %g", phase, diff)
		}
	}
}
