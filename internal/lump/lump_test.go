package lump

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdrstoch/internal/spmat"
)

func csrFromRows(t testing.TB, rows [][]float64) *spmat.CSR {
	t.Helper()
	n := len(rows)
	tr := spmat.NewTriplet(n, len(rows[0]))
	for i, row := range rows {
		for j, v := range row {
			if v != 0 {
				tr.Add(i, j, v)
			}
		}
	}
	return tr.ToCSR()
}

func randomStochasticCSR(n int, rng *rand.Rand) *spmat.CSR {
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

func TestNewPartitionValidation(t *testing.T) {
	if _, err := NewPartition(nil); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := NewPartition([]int{0, -1}); err == nil {
		t.Error("negative block accepted")
	}
	if _, err := NewPartition([]int{0, 2}); err == nil {
		t.Error("gap in block ids accepted")
	}
	p, err := NewPartition([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 2 || p.NumStates() != 4 {
		t.Error("partition shape")
	}
	if p.BlockOf(2) != 0 {
		t.Error("BlockOf")
	}
}

func TestBlocks(t *testing.T) {
	p, _ := NewPartition([]int{0, 1, 0, 2})
	blocks := p.Blocks()
	if len(blocks) != 3 {
		t.Fatal("block count")
	}
	if len(blocks[0]) != 2 || blocks[0][0] != 0 || blocks[0][1] != 2 {
		t.Errorf("block 0 = %v", blocks[0])
	}
}

func TestPairsWithinSegments(t *testing.T) {
	// 2 segments of length 5: blocks per segment = 3 (last is singleton).
	p, err := PairsWithinSegments(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 10 || p.NumBlocks() != 6 {
		t.Fatalf("shape %d/%d", p.NumStates(), p.NumBlocks())
	}
	want := []int{0, 0, 1, 1, 2, 3, 3, 4, 4, 5}
	for i, b := range want {
		if p.BlockOf(i) != b {
			t.Fatalf("BlockOf(%d) = %d, want %d", i, p.BlockOf(i), b)
		}
	}
	if _, err := PairsWithinSegments(0, 2); err == nil {
		t.Error("zero segment length accepted")
	}
}

func TestMergeSegmentsElementwise(t *testing.T) {
	// 2 groups × 3 segments × 2 entries: segments (0,1) merge, 2 stays.
	p, err := MergeSegmentsElementwise(2, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 12 || p.NumBlocks() != 8 {
		t.Fatalf("shape %d/%d", p.NumStates(), p.NumBlocks())
	}
	want := []int{
		0, 1, 0, 1, 2, 3, // group 0: segs 0,1 -> coarse 0; seg 2 -> coarse 1
		4, 5, 4, 5, 6, 7, // group 1
	}
	for i, b := range want {
		if p.BlockOf(i) != b {
			t.Fatalf("BlockOf(%d) = %d, want %d", i, p.BlockOf(i), b)
		}
	}
	for _, bad := range [][4]int{{0, 1, 1, 2}, {1, 1, 1, 0}} {
		if _, err := MergeSegmentsElementwise(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("bad layout %v accepted", bad)
		}
	}
}

// TestMergeSegmentsComposesPairings: one width-4 merge of 7 segments is
// the composition of two width-2 pairings (7 -> 4 -> 2 segments), block
// for block.
func TestMergeSegmentsComposesPairings(t *testing.T) {
	const segLen, segs, groups = 3, 7, 2
	wide, err := MergeSegmentsElementwise(segLen, segs, groups, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := MergeSegmentsElementwise(segLen, segs, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MergeSegmentsElementwise(segLen, (segs+1)/2, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumBlocks() != second.NumBlocks() || wide.NumBlocks() != 2*segLen*groups {
		t.Fatalf("blocks: wide %d, composed %d", wide.NumBlocks(), second.NumBlocks())
	}
	for i := 0; i < wide.NumStates(); i++ {
		if got, want := wide.BlockOf(i), second.BlockOf(first.BlockOf(i)); got != want {
			t.Fatalf("BlockOf(%d) = %d, composed pairings give %d", i, got, want)
		}
	}
}

func TestRestrictProlongRoundTrip(t *testing.T) {
	p, _ := NewPartition([]int{0, 0, 1, 1, 1})
	fine := []float64{0.1, 0.2, 0.3, 0.3, 0.1}
	coarse := p.Restrict(nil, fine)
	if math.Abs(coarse[0]-0.3) > 1e-15 || math.Abs(coarse[1]-0.7) > 1e-15 {
		t.Fatalf("restrict = %v", coarse)
	}
	w := p.Weights(fine)
	back := p.Prolong(nil, coarse, w)
	for i := range fine {
		if math.Abs(back[i]-fine[i]) > 1e-15 {
			t.Fatalf("round trip broke at %d: %g vs %g", i, back[i], fine[i])
		}
	}
}

func TestWeightsZeroBlockFallsBackUniform(t *testing.T) {
	p, _ := NewPartition([]int{0, 0, 1, 1})
	w := p.Weights([]float64{0, 0, 0.5, 0.5})
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Fatalf("zero block weights = %v", w[:2])
	}
}

func TestLumpPreservesStochasticity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomStochasticCSR(9, rng)
	part, _ := PairsWithinSegments(3, 3)
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.Float64()
	}
	coarse, err := Lump(p, part, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.CheckStochastic(1e-10); err != nil {
		t.Fatal(err)
	}
	r, c := coarse.Dims()
	if r != part.NumBlocks() || c != part.NumBlocks() {
		t.Fatalf("coarse dims %dx%d", r, c)
	}
}

// TestLumpExactAtStationary: when x is the exact stationary vector, the
// coarse chain's stationary vector equals the aggregated fine one.
func TestLumpExactAtStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomStochasticCSR(8, rng)
	pi, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := NewPartition([]int{0, 0, 1, 1, 2, 2, 3, 3})
	coarse, err := Lump(p, part, pi)
	if err != nil {
		t.Fatal(err)
	}
	piC, err := spmat.StationaryGTHCSR(coarse)
	if err != nil {
		t.Fatal(err)
	}
	want := part.Restrict(nil, pi)
	for b := range want {
		if math.Abs(piC[b]-want[b]) > 1e-12 {
			t.Fatalf("block %d: coarse pi %g vs aggregated %g", b, piC[b], want[b])
		}
	}
}

func TestLumpErrors(t *testing.T) {
	p := csrFromRows(t, [][]float64{{0.5, 0.5}, {1, 0}})
	part, _ := NewPartition([]int{0})
	if _, err := Lump(p, part, []float64{1, 1}); err == nil {
		t.Error("partition size mismatch accepted")
	}
	part2, _ := NewPartition([]int{0, 0})
	if _, err := Lump(p, part2, []float64{1}); err == nil {
		t.Error("weight size mismatch accepted")
	}
}

func TestIsExactlyLumpableSymmetricChain(t *testing.T) {
	// A chain symmetric under swapping states {0,1}: lumping {0,1} vs {2}
	// is exact.
	p := csrFromRows(t, [][]float64{
		{0.2, 0.3, 0.5},
		{0.3, 0.2, 0.5},
		{0.25, 0.25, 0.5},
	})
	part, _ := NewPartition([]int{0, 0, 1})
	ok, err := IsExactlyLumpable(p, part, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("symmetric lumping not detected")
	}
}

func TestIsExactlyLumpableRejects(t *testing.T) {
	p := csrFromRows(t, [][]float64{
		{0.2, 0.3, 0.5},
		{0.6, 0.2, 0.2},
		{0.25, 0.25, 0.5},
	})
	part, _ := NewPartition([]int{0, 0, 1})
	ok, err := IsExactlyLumpable(p, part, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("non-lumpable partition accepted")
	}
}

func TestIsExactlyLumpableTrivialPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomStochasticCSR(6, rng)
	// Identity partition: always lumpable.
	id := make([]int, 6)
	for i := range id {
		id[i] = i
	}
	pid, _ := NewPartition(id)
	if ok, _ := IsExactlyLumpable(p, pid, 1e-12); !ok {
		t.Error("identity partition must be lumpable")
	}
	// Single block: always lumpable (rows sum to 1).
	one, _ := NewPartition(make([]int, 6))
	if ok, _ := IsExactlyLumpable(p, one, 1e-9); !ok {
		t.Error("single-block partition must be lumpable")
	}
}

// Property: restriction preserves total mass, and lumping preserves
// stochasticity for arbitrary iterates.
func TestQuickLumpInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		segs := 1 + rng.Intn(4)
		segLen := 1 + rng.Intn(6)
		n := segs * segLen
		p := randomStochasticCSR(n, rng)
		part, err := PairsWithinSegments(segLen, segs)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		coarse, err := Lump(p, part, x)
		if err != nil {
			return false
		}
		if err := coarse.CheckStochastic(1e-9); err != nil {
			return false
		}
		sum := 0.0
		for _, v := range part.Restrict(nil, x) {
			sum += v
		}
		want := 0.0
		for _, v := range x {
			want += v
		}
		return math.Abs(sum-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
