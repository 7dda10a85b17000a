package core_test

import (
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/multigrid"
)

// TestHierarchyCollapsesCounterDimension pins the shape of the multigrid
// chain on the Figure 5 panels: the phase-pair levels, then exactly one
// counter level whose blocks merge runs of 2^K counter states (counter
// segment s joins coarse segment s>>K), ending at the same 32-state
// coarsest level the one-halving-per-level chain reached.
func TestHierarchyCollapsesCounterDimension(t *testing.T) {
	for _, tc := range []struct {
		counterLen int
		k          int // ceil-halvings of the 2L−1 counter states down to ≤3
	}{
		{8, 3},  // 15 -> 8 -> 4 -> 2
		{32, 5}, // 63 -> 32 -> 16 -> 8 -> 4 -> 2
	} {
		m, err := core.Build(experiments.Fig5Spec(tc.counterLen))
		if err != nil {
			t.Fatal(err)
		}
		parts, err := m.Hierarchy(4)
		if err != nil {
			t.Fatal(err)
		}
		phase, err := multigrid.BuildPairHierarchy(m.M, m.D*m.C, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(phase)+1 {
			t.Fatalf("counter %d: %d levels after %d phase levels, want exactly one counter level",
				tc.counterLen, len(parts)-len(phase), len(phase))
		}
		for k, p := range phase {
			if parts[k].NumBlocks() != p.NumBlocks() {
				t.Fatalf("counter %d: phase level %d has %d blocks, want %d",
					tc.counterLen, k, parts[k].NumBlocks(), p.NumBlocks())
			}
		}
		cp := parts[len(parts)-1]
		segLen := cp.NumStates() / (m.D * m.C)
		coarseSegs := (m.C + 1<<tc.k - 1) >> tc.k
		for i := 0; i < cp.NumStates(); i++ {
			g, s, mi := i/(m.C*segLen), (i/segLen)%m.C, i%segLen
			if want := (g*coarseSegs+s>>tc.k)*segLen + mi; cp.BlockOf(i) != want {
				t.Fatalf("counter %d: state %d (group %d, counter %d, phase %d) in block %d, want %d",
					tc.counterLen, i, g, s, mi, cp.BlockOf(i), want)
			}
		}
		if got := cp.NumBlocks(); got != 32 {
			t.Errorf("counter %d: coarsest level has %d states, want 32", tc.counterLen, got)
		}
	}
}
