package lump

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cdrstoch/internal/spmat"
)

// TestPlanMatchesLump checks the fixed-pattern Update against a fresh Lump
// for several random chains, partitions, and iterates. The two accumulate
// per coarse entry in the same row-major fine order, so values must agree
// to rounding on the shared pattern and the plan's extra (structural-only)
// entries must carry zero.
func TestPlanMatchesLump(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 30, 64} {
		p := randomStochasticCSR(n, rng)
		part, err := PairsWithinSegments(n/2, 2)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(p, part)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			want, err := Lump(p, part, x)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Update(x); err != nil {
				t.Fatal(err)
			}
			got := plan.Coarse()
			nb := part.NumBlocks()
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					d := math.Abs(got.At(i, j) - want.At(i, j))
					if d > 1e-14 {
						t.Fatalf("n=%d trial %d: coarse (%d,%d) = %g, Lump %g",
							n, trial, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
			w := part.Weights(x)
			for i, v := range plan.Weights() {
				if math.Abs(v-w[i]) > 1e-15 {
					t.Fatalf("weights[%d] = %g, want %g", i, v, w[i])
				}
			}
		}
	}
}

// TestPlanTracksInPlaceFineRefresh rewrites the fine values in place (the
// level-to-level situation in the multigrid hierarchy) and checks Update
// picks up the new values.
func TestPlanTracksInPlaceFineRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := randomStochasticCSR(20, rng)
	part, err := PairsWithinSegments(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(p, part)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	for i := range x {
		x[i] = 1
	}
	// Replace p's values with a different stochastic matrix of identical
	// pattern (dense random rows → same full pattern).
	fresh := randomStochasticCSR(20, rng)
	copy(p.RawValues(), fresh.RawValues())
	if err := plan.Update(x); err != nil {
		t.Fatal(err)
	}
	want, err := Lump(fresh, part, x)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Coarse()
	for i := 0; i < part.NumBlocks(); i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > 1e-14 {
				t.Fatalf("coarse (%d,%d) off by %g after refresh", i, j, d)
			}
		}
	}
}

// TestPlanUpdateNoAlloc asserts the steady-state promise: zero heap
// allocation per Update after the plan is built.
func TestPlanUpdateNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomStochasticCSR(32, rng)
	part, err := PairsWithinSegments(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(p, part)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.Float64() + 0.01
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := plan.Update(x); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Update allocates %v times per call, want 0", avg)
	}
}

func TestPlanValidation(t *testing.T) {
	rect := spmat.NewTriplet(2, 3)
	rect.Add(0, 0, 1)
	rect.Add(1, 2, 1)
	part2, err := NewPartition([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(rect.ToCSR(), part2); err == nil {
		t.Error("rectangular matrix accepted")
	}
	rng := rand.New(rand.NewSource(14))
	p := randomStochasticCSR(6, rng)
	if _, err := NewPlan(p, part2); err == nil {
		t.Error("mismatched partition accepted")
	}
	part6, err := PairsWithinSegments(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(p, part6)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Update(make([]float64, 3)); err == nil {
		t.Error("short iterate accepted")
	}
}

// TestPlanUpdateRejectsCorruptFine corrupts a stochastic fine matrix in
// place — one entry pushed negative with its row sum kept at 1, or one
// row scaled to sum 1.1 — and checks that Update, which validates in its
// scatter pass, still refuses the result.
func TestPlanUpdateRejectsCorruptFine(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	part, err := PairsWithinSegments(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64() + 0.01
	}
	for _, tc := range []struct {
		name    string
		corrupt func(vals []float64)
		want    string
	}{
		{"negative entry", func(vals []float64) {
			// Row 3's first two entries trade mass: the sum stays 1, the
			// first entry drops to −0.01.
			d := vals[0] + 0.01
			vals[0] -= d
			vals[1] += d
		}, "negative probability"},
		{"row sum 1.1", func(vals []float64) {
			for k := range vals {
				vals[k] *= 1.1
			}
		}, "row 1 sums to"},
	} {
		p := randomStochasticCSR(16, rng)
		plan, err := NewPlan(p, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Update(x); err != nil {
			t.Fatalf("%s: clean matrix rejected: %v", tc.name, err)
		}
		tc.corrupt(p.RawValues()[3*16 : 4*16]) // row 3 of the dense chain, in block 1
		err = plan.Update(x)
		if err == nil {
			t.Fatalf("%s: corrupt fine matrix accepted", tc.name)
		}
		if msg := err.Error(); !strings.Contains(msg, "coarse TPM not stochastic") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q, want %q", tc.name, msg, tc.want)
		}
	}
}
