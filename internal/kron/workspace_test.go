package kron

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cdrstoch/internal/spmat"
)

// The VecMul workspace fix is pinned by this test: after one warmup
// multiply, neither the Workspace forms nor the pooled convenience forms
// may allocate per call.
func TestShuffleProductsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, err := NewDescriptor([]Term{
		{Coeff: 0.5, Factors: []*spmat.CSR{
			randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), randomStochasticCSR(5, rng),
		}},
		{Coeff: 0.5, Factors: []*spmat.CSR{
			randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), randomStochasticCSR(5, rng),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, d.Dim())
	y := make([]float64, d.Dim())
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	var ws Workspace
	cases := []struct {
		name string
		f    func()
	}{
		{"VecMulWs", func() { d.VecMulWs(&ws, y, x) }},
		{"MulVecWs", func() { d.MulVecWs(&ws, y, x) }},
		{"VecMul", func() { d.VecMul(y, x) }},
		{"MulVec", func() { d.MulVec(y, x) }},
	}
	for _, tc := range cases {
		tc.f() // warmup: grow scratch once
		if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs per call after warmup", tc.name, allocs)
		}
	}
}

// Parallel shuffle products must agree with the serial evaluation and be
// race-free under concurrent use of one shared descriptor (run under
// -race in ci).
func TestParallelShuffleMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Wide innermost factor so the right-stride split engages, and a wide
	// outermost so the left-slab split engages; dimension beyond the
	// parallel cutoff.
	a := randomStochasticCSR(8, rng)
	b := randomStochasticCSR(8, rng)
	c := randomStochasticCSR(512, rng)
	serial, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b, c}}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b, c}}})
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	if parallel.Dim() < spmat.ParallelCutoff {
		t.Fatalf("test descriptor below parallel cutoff: %d", parallel.Dim())
	}
	x := make([]float64, serial.Dim())
	for i := range x {
		x[i] = rng.Float64()
	}
	for name, pair := range map[string]func(d *Descriptor, y []float64){
		"VecMul": func(d *Descriptor, y []float64) { d.VecMul(y, x) },
		"MulVec": func(d *Descriptor, y []float64) { d.MulVec(y, x) },
	} {
		want := make([]float64, serial.Dim())
		pair(serial, want)
		var wg sync.WaitGroup
		errs := make([]int, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]float64, parallel.Dim())
				pair(parallel, got)
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						errs[g]++
					}
				}
			}(g)
		}
		wg.Wait()
		for g, n := range errs {
			if n > 0 {
				t.Fatalf("%s: goroutine %d saw %d mismatches vs serial", name, g, n)
			}
		}
	}
}

// Diag, RowSums and the segment view are the structural surface the
// operator backend and the multigrid level rely on; Diag and RowSums must
// agree with the materialized matrix, and the materialization (built on
// the segment view) with the Kronecker products formed term by term.
func TestStructuralSurfaceMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 5; trial++ {
		nt := 1 + rng.Intn(3)
		terms := make([]Term, nt)
		for ti := range terms {
			terms[ti] = Term{Coeff: rng.NormFloat64(), Factors: []*spmat.CSR{
				randomCSR(3, 3, 0.6, rng), randomCSR(4, 4, 0.6, rng),
			}}
		}
		d, err := NewDescriptor(terms)
		if err != nil {
			t.Fatal(err)
		}
		m := d.ToCSR()
		diag := d.Diag()
		sums := d.RowSums()
		refSums := m.RowSums()
		for i := 0; i < d.Dim(); i++ {
			if math.Abs(diag[i]-m.At(i, i)) > 1e-12 {
				t.Fatalf("trial %d: diag[%d] = %g, want %g", trial, i, diag[i], m.At(i, i))
			}
			if math.Abs(sums[i]-refSums[i]) > 1e-12 {
				t.Fatalf("trial %d: rowsum[%d] = %g, want %g", trial, i, sums[i], refSums[i])
			}
		}
		// The segment view ToCSR materializes through must reproduce the
		// Kronecker products formed term by term.
		dim := d.Dim()
		ref := make([]float64, dim*dim)
		for _, tm := range terms {
			k := Kron(tm.Factors[0], tm.Factors[1])
			for i := 0; i < dim; i++ {
				cols, vals := k.Row(i)
				for kk, j := range cols {
					ref[i*dim+j] += tm.Coeff * vals[kk]
				}
			}
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if math.Abs(ref[i*dim+j]-m.At(i, j)) > 1e-12 {
					t.Fatalf("trial %d: (%d,%d) = %g, want %g", trial, i, j, m.At(i, j), ref[i*dim+j])
				}
			}
		}
	}
}
