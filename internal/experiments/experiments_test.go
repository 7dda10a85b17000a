package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/multigrid"
)

func TestBaseSpecValid(t *testing.T) {
	if err := BaseSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Specs(t *testing.T) {
	low := Fig4Spec(false)
	high := Fig4Spec(true)
	if low.CounterLen != 8 || high.CounterLen != 8 {
		t.Error("Figure 4 fixes the counter length at 8")
	}
	if high.EyeJitter.Std() != 4*low.EyeJitter.Std() {
		t.Errorf("high/low sigma ratio = %g, want 4",
			high.EyeJitter.Std()/low.EyeJitter.Std())
	}
}

func TestFig5SpecLengths(t *testing.T) {
	if len(Fig5Lengths) != 3 || Fig5Lengths[1] != 8 {
		t.Fatalf("Fig5Lengths = %v", Fig5Lengths)
	}
	for _, l := range Fig5Lengths {
		if err := Fig5Spec(l).Validate(); err != nil {
			t.Errorf("Fig5Spec(%d): %v", l, err)
		}
	}
}

// TestFig4Shape: the paper's Figure 4 contrast — negligible BER at low
// noise, sharply higher when the eye jitter quadruples.
func TestFig4Shape(t *testing.T) {
	low, err := RunPanel(Fig4Spec(false))
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunPanel(Fig4Spec(true))
	if err != nil {
		t.Fatal(err)
	}
	if low.Analysis.BER > 1e-9 {
		t.Errorf("low-noise BER %.3e not negligible", low.Analysis.BER)
	}
	if high.Analysis.BER < 1e3*low.Analysis.BER {
		t.Errorf("BER contrast too small: low %.3e, high %.3e",
			low.Analysis.BER, high.Analysis.BER)
	}
}

// TestFig5Shape: the paper's Figure 5 conclusion — an interior optimum at
// counter length 8, worse at both shorter and longer lengths.
func TestFig5Shape(t *testing.T) {
	ber := map[int]float64{}
	for _, l := range Fig5Lengths {
		p, err := RunPanel(Fig5Spec(l))
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		ber[l] = p.Analysis.BER
	}
	if !(ber[8] < ber[2] && ber[8] < ber[32]) {
		t.Fatalf("no interior optimum at 8: %v", ber)
	}
	if ber[2]/ber[8] < 1.5 {
		t.Errorf("short-counter penalty only %.2fx", ber[2]/ber[8])
	}
	if ber[32]/ber[8] < 2 {
		t.Errorf("long-counter penalty only %.2fx", ber[32]/ber[8])
	}
}

func TestScaledSpec(t *testing.T) {
	s, err := ScaledSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	base := BaseSpec()
	if s.GridStep != base.GridStep/2 {
		t.Error("grid not refined")
	}
	m, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := core.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() <= mb.NumStates() {
		t.Error("refinement did not grow the state space")
	}
	if _, err := ScaledSpec(0); err == nil {
		t.Error("refine=0 accepted")
	}
}

func TestPanelOutputs(t *testing.T) {
	p, err := RunPanel(Fig4Spec(true))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "series,phase_ui,density\n") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, "phase,") || !strings.Contains(out, "phase_plus_nw,") {
		t.Error("missing series")
	}
	var ann bytes.Buffer
	if err := p.Annotate(&ann); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"COUNTER:", "BER:", "Size:", "Solvetime:"} {
		if !strings.Contains(ann.String(), want) {
			t.Errorf("annotation missing %q", want)
		}
	}
	if p.Slip.Flux <= 0 {
		t.Error("slip flux must be positive on the high-noise panel")
	}
}

// TestCompareSolvers verifies the paper's Numerical Methods claims in
// their honest, measurable form: every solver reaches the same fixed
// point; the multilevel method needs orders of magnitude fewer iterations
// than the basic iterations it accelerates; and as the grid refines, the
// classical sweep counts grow with the slowing phase diffusion while the
// multigrid cycle count stays nearly level.
func TestCompareSolvers(t *testing.T) {
	run := func(refine int) map[string]SolverRow {
		s, err := ScaledSpec(refine)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := CompareSolvers(m, 1e-10, 50000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("rows = %d", len(rows))
		}
		byName := map[string]SolverRow{}
		for _, r := range rows {
			if !r.Converged {
				t.Fatalf("refine %d: %s did not converge: %+v", refine, r.Name, r)
			}
			if r.SlopePoints < 2 || !(r.Slope < 0) {
				t.Errorf("refine %d: %s decay slope %g over %d points, want negative fit",
					refine, r.Name, r.Slope, r.SlopePoints)
			}
			byName[r.Name] = r
		}
		var buf bytes.Buffer
		if err := WriteSolverTable(&buf, rows); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "mg-wcycle") {
			t.Error("table missing multigrid row")
		}
		return byName
	}
	r1 := run(2)
	r2 := run(4)

	// Multigrid accelerates the basic iterations: ≥5× fewer iterations
	// than power at both scales.
	for _, r := range []map[string]SolverRow{r1, r2} {
		if r["power(0.95)"].Iterations < 5*r["mg-wcycle"].Iterations {
			t.Errorf("power %d iters vs mg %d cycles: acceleration too small",
				r["power(0.95)"].Iterations, r["mg-wcycle"].Iterations)
		}
	}
	// Scalability: classical sweeps grow with refinement, multigrid cycles
	// stay level (within 2×).
	if r2["gauss-seidel"].Iterations < r1["gauss-seidel"].Iterations*3/2 {
		t.Errorf("GS sweeps did not grow under refinement: %d -> %d",
			r1["gauss-seidel"].Iterations, r2["gauss-seidel"].Iterations)
	}
	if r2["mg-wcycle"].Iterations > 2*r1["mg-wcycle"].Iterations {
		t.Errorf("multigrid cycles not level: %d -> %d",
			r1["mg-wcycle"].Iterations, r2["mg-wcycle"].Iterations)
	}
}

// TestFig5CycleBudget pins the default W(2,2) solve's cycle counts on the
// Figure 5 panels the service benchmark exercises, and their BERs to 1e-9
// relative of the values the one-halving-per-level counter coarsening
// produced, so a hierarchy change can neither cost cycles nor move an
// answer.
func TestFig5CycleBudget(t *testing.T) {
	for _, tc := range []struct {
		name       string
		counterLen int
		kron       bool
		maxCycles  int
		ber        float64
	}{
		{"counter-8", 8, false, 24, 3.0063513926437764e-07},
		{"counter-32", 32, false, 42, 4.0165521453834799e-06},
		{"kron counter-8", 8, true, 42, 3.006351392643473e-07},
		{"kron counter-32", 32, true, 82, 4.0165521453834799e-06},
	} {
		m, err := core.Build(Fig5Spec(tc.counterLen))
		if err != nil {
			t.Fatal(err)
		}
		solve := m.Solve
		if tc.kron {
			solve = m.SolveKron
		}
		a, err := solve(core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a.Multigrid.Cycles > tc.maxCycles {
			t.Errorf("%s: %d cycles, budget %d", tc.name, a.Multigrid.Cycles, tc.maxCycles)
		}
		if rel := math.Abs(a.BER-tc.ber) / tc.ber; rel > 1e-9 {
			t.Errorf("%s: BER %.17g, want %.17g (relative change %.2e)", tc.name, a.BER, tc.ber, rel)
		}
	}
}

// TestMultigridSweepEquivalents: the work figure sums visits × sweeps ×
// relative size over the smoothed levels and leaves the coarsest out.
func TestMultigridSweepEquivalents(t *testing.T) {
	res := multigrid.Result{LevelStats: []multigrid.LevelStat{
		{Level: 0, Size: 100, Visits: 10},
		{Level: 1, Size: 50, Visits: 20},
		{Level: 2, Size: 10, Visits: 40},
	}}
	// 10·4·1 + 20·4·0.5 = 80; the 10-state coarsest level adds nothing.
	if got := MultigridSweepEquivalents(res, 4); got != 80 {
		t.Errorf("sweep equivalents = %g, want 80", got)
	}
	if got := MultigridSweepEquivalents(multigrid.Result{}, 4); got != 0 {
		t.Errorf("empty result = %g, want 0", got)
	}
}
