package passage

import (
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/spmat"
)

func TestQuasiStationaryTwoStatePlusTrap(t *testing.T) {
	// Survivor states {0,1} with uniform leak eps to trap state 2:
	// Q = (1−eps)·[[1−a,a],[b,1−b]], so λ = 1−eps and ν is the two-state
	// stationary vector. The 1e-20 leak lies far below the resolution of
	// λ, so only a subtraction-free hazard recovers it.
	a, b := 0.3, 0.2
	for _, eps := range []float64{0.01, 1e-20} {
		tr := spmat.NewTriplet(3, 3)
		tr.Add(0, 0, (1-eps)*(1-a))
		tr.Add(0, 1, (1-eps)*a)
		tr.Add(0, 2, eps)
		tr.Add(1, 0, (1-eps)*b)
		tr.Add(1, 1, (1-eps)*(1-b))
		tr.Add(1, 2, eps)
		tr.Add(2, 2, 1)
		p := tr.ToCSR()
		target := []bool{false, false, true}
		res, err := QuasiStationary(p, target, 1e-13, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("eps %g: not converged: %+v", eps, res)
		}
		if math.Abs(res.Lambda-(1-eps)) > 1e-10 {
			t.Fatalf("eps %g: lambda = %g, want %g", eps, res.Lambda, 1-eps)
		}
		if rel := math.Abs(res.HazardPerStep-eps) / eps; rel > 1e-12 {
			t.Fatalf("eps %g: hazard = %g (relative error %g)", eps, res.HazardPerStep, rel)
		}
		want := []float64{b / (a + b), a / (a + b), 0}
		for i := range want {
			if math.Abs(res.Nu[i]-want[i]) > 1e-9 {
				t.Fatalf("eps %g: nu[%d] = %g, want %g", eps, i, res.Nu[i], want[i])
			}
		}
	}
}

func TestQuasiStationaryEigenRelation(t *testing.T) {
	// ν·Q = λ·ν on a random chain with a random small target set.
	rng := rand.New(rand.NewSource(61))
	n := 12
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
	p := tr.ToCSR()
	target := make([]bool, n)
	target[2], target[9] = true, true
	res, err := QuasiStationary(p, target, 1e-13, 200000)
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	// Check the eigen relation directly.
	y := make([]float64, n)
	p.VecMul(y, res.Nu)
	for i := 0; i < n; i++ {
		if target[i] {
			if res.Nu[i] != 0 {
				t.Fatalf("nu nonzero on target state %d", i)
			}
			continue
		}
		if math.Abs(y[i]-res.Lambda*res.Nu[i]) > 1e-10 {
			t.Fatalf("eigen relation broken at %d: %g vs %g", i, y[i], res.Lambda*res.Nu[i])
		}
	}
	if res.HazardPerStep <= 0 || res.HazardPerStep >= 1 {
		t.Fatalf("hazard %g", res.HazardPerStep)
	}
}

// TestQuasiStationaryHazardNearFlux: for a rarely-hit target, the QS
// hazard and the stationary entry flux agree to leading order.
func TestQuasiStationaryHazardNearFlux(t *testing.T) {
	// Biased random walk with a rare far end.
	n := 24
	tr := spmat.NewTriplet(n, n)
	up, down := 0.2, 0.5
	for i := 0; i < n; i++ {
		stay := 1 - up - down
		switch i {
		case 0:
			tr.Add(0, 0, stay+down)
			tr.Add(0, 1, up)
		case n - 1:
			tr.Add(n-1, n-1, stay+up)
			tr.Add(n-1, n-2, down)
		default:
			tr.Add(i, i-1, down)
			tr.Add(i, i, stay)
			tr.Add(i, i+1, up)
		}
	}
	p := tr.ToCSR()
	pi, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]bool, n)
	target[n-1] = true
	flux, err := SlipFlux(p, pi, target)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := QuasiStationary(p, target, 1e-13, 500000)
	if err != nil || !qs.Converged {
		t.Fatalf("%v %+v", err, qs)
	}
	ratio := qs.HazardPerStep * flux.MeanTimeBetween
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("hazard %g vs 1/MTB %g (product %g)",
			qs.HazardPerStep, 1/flux.MeanTimeBetween, ratio)
	}
}

func TestQuasiStationaryValidation(t *testing.T) {
	p := symmetricWalk(4)
	if _, err := QuasiStationary(p, []bool{true}, 0, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := QuasiStationary(p, make([]bool, 4), 0, 0); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := QuasiStationary(p, []bool{true, true, true, true}, 0, 0); err == nil {
		t.Error("all-target accepted")
	}
}
