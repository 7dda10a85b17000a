package cdrstoch

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// multigrid cycle kind, the smoothing budget per level, the depth of the
// coarsening hierarchy, and the Krylov alternative to aggregation. Each
// reports cycles/sweeps alongside time so the convergence-vs-work
// trade-off is visible in one run.

import (
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/multigrid"
)

func scaledModel(b *testing.B, refine int) *core.Model {
	b.Helper()
	spec, err := experiments.ScaledSpec(refine)
	if err != nil {
		b.Fatal(err)
	}
	return buildOrFatal(b, spec)
}

// BenchmarkAblationCycleKind compares V- and W-cycles at equal smoothing.
func BenchmarkAblationCycleKind(b *testing.B) {
	m := scaledModel(b, 2)
	for _, tc := range []struct {
		name string
		kind multigrid.CycleKind
	}{
		{"vcycle", multigrid.VCycle},
		{"wcycle", multigrid.WCycle},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts, err := m.Hierarchy(4)
				if err != nil {
					b.Fatal(err)
				}
				s, err := multigrid.New(m.P, parts,
					multigrid.Config{Tol: 1e-10, PreSmooth: 2, PostSmooth: 2, Cycle: tc.kind})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(nil)
				if err != nil || !res.Converged {
					b.Fatalf("%v %v", err, res)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationSmoothing varies the Gauss–Seidel sweeps per level.
func BenchmarkAblationSmoothing(b *testing.B) {
	m := scaledModel(b, 2)
	for _, sweeps := range []int{1, 2, 4} {
		name := map[int]string{1: "smooth1", 2: "smooth2", 4: "smooth4"}[sweeps]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts, err := m.Hierarchy(4)
				if err != nil {
					b.Fatal(err)
				}
				s, err := multigrid.New(m.P, parts, multigrid.Config{
					Tol: 1e-10, PreSmooth: sweeps, PostSmooth: sweeps, Cycle: multigrid.WCycle,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(nil)
				if err != nil || !res.Converged {
					b.Fatalf("%v %v", err, res)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationHierarchyDepth varies where the phase coarsening stops,
// reporting the hierarchy depth and the solve's work in fine-level sweeps
// next to its cycles.
func BenchmarkAblationHierarchyDepth(b *testing.B) {
	m := scaledModel(b, 2)
	for _, minSeg := range []int{2, 4, 8} {
		name := map[int]string{2: "minseg2", 4: "minseg4", 8: "minseg8"}[minSeg]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := m.Solve(core.SolveOptions{
					MinSegLen: minSeg,
					Multigrid: multigrid.Config{Tol: 1e-10, PreSmooth: 2, PostSmooth: 2, Cycle: multigrid.WCycle},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(a.Multigrid.Cycles), "cycles")
				b.ReportMetric(float64(len(a.Multigrid.LevelSizes)), "levels")
				b.ReportMetric(experiments.MultigridSweepEquivalents(a.Multigrid, 4), "sweep-equiv")
			}
		})
	}
}

// BenchmarkAblationGMRESRestart varies the Krylov subspace size of the
// GMRES alternative.
func BenchmarkAblationGMRESRestart(b *testing.B) {
	m := scaledModel(b, 2)
	ch, err := m.Chain()
	if err != nil {
		b.Fatal(err)
	}
	for _, restart := range []int{10, 30, 60} {
		name := map[int]string{10: "m10", 30: "m30", 60: "m60"}[restart]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ch.StationaryGMRES(markov.GMRESOptions{
					Tol: 1e-10, Restart: restart, MaxIter: 200000,
				})
				if err != nil || !res.Converged {
					b.Fatalf("%v %+v", err, res)
				}
				b.ReportMetric(float64(res.Iterations), "matvecs")
			}
		})
	}
}

// BenchmarkBathtub measures the post-solve measure extraction: a 65-point
// bathtub curve plus the eye opening at 1e-9.
func BenchmarkBathtub(b *testing.B) {
	m := buildOrFatal(b, experiments.Fig5Spec(8))
	a, err := m.Solve(core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Bathtub(a.Pi, 65); err != nil {
			b.Fatal(err)
		}
		if _, err := m.EyeOpening(a.Pi, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBoundaryModel compares the saturating and wrapping
// boundary treatments of the phase grid: build + solve + slip measure.
func BenchmarkAblationBoundaryModel(b *testing.B) {
	for _, wrap := range []bool{false, true} {
		name := "saturate"
		if wrap {
			name = "wrap"
		}
		b.Run(name, func(b *testing.B) {
			spec := experiments.Fig5Spec(8)
			spec.WrapPhase = wrap
			for i := 0; i < b.N; i++ {
				m, err := core.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				a, err := m.Solve(core.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if wrap {
					rate, _, err := m.WrapSlipRate(a.Pi)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rate, "slip-rate")
				} else {
					stats, err := m.SlipStats(a.Pi)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(stats.Flux, "slip-rate")
				}
				b.ReportMetric(a.BER, "BER")
			}
		})
	}
}

// BenchmarkFrameErrorRate measures the exact frame-survival propagation
// over an STS-1 frame.
func BenchmarkFrameErrorRate(b *testing.B) {
	m := buildOrFatal(b, experiments.Fig5Spec(8))
	a, err := m.Solve(core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FrameErrorRate(a.Pi, 810*8); err != nil {
			b.Fatal(err)
		}
	}
}
