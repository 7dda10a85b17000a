package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
)

// Request classes. A class is one kind of request whose latencies are
// comparable: same endpoint, backend and model size.
const (
	clsAnalyzeSmall = "analyze_small" // /v1/analyze, counter-8, explicit TPM
	clsAnalyzeLarge = "analyze_large" // /v1/analyze, counter-32, explicit TPM
	clsSlip         = "slip"          // /v1/slip, counter-8
	clsAnalyzeKron  = "analyze_kron"  // /v1/analyze, counter-8, "backend":"kron"
	clsSweepBatch   = "sweep_batch"   // /v1/sweep, 20 points, "batch":true
	clsSweepFanout  = "sweep_fanout"  // /v1/sweep, 8 points, fan-out
	clsHitAnalyze   = "hit_analyze"   // cache hits of the four kinds above
	clsHitSlip      = "hit_slip"
	clsHitKron      = "hit_kron"
	clsHitSweep     = "hit_sweep"
)

// Fig. 5 operating point: counter-8 is the BER optimum of the figure,
// counter-32 its longest panel; sigma is the n_w standard deviation in UI.
const fig5Sigma = 0.09

// request is one generated HTTP request with the inputs that produced it,
// so checks and the traced replay can recompute what the server did.
type request struct {
	Class   string
	Path    string
	Body    []byte
	Spec    core.Spec
	Counter int
	Values  []float64 // sweep family (param "stdnw")
	Batch   bool
	Round   int // round index within the run; -1 for set-up and probe requests
}

// isSweep reports whether the request goes to /v1/sweep.
func (r *request) isSweep() bool { return r.Path == "/v1/sweep" }

// pointSpec is the spec of one sweep point, as the server derives it.
func (r *request) pointSpec(i int) core.Spec {
	s := r.Spec
	s.EyeJitter = dist.NewGaussian(0, r.Values[i])
	return s
}

// gen turns the benchmark seed into request inputs. Every sigma it hands
// out is fresh within the run, so a cold request never repeats a spec.
type gen struct {
	rng  *rand.Rand
	used map[float64]bool
}

func newGen(seed uint64, stream uint64) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, stream)), used: map[float64]bool{}}
}

// fresh draws lo + width·u until the value was not handed out before.
func (g *gen) fresh(lo, width float64) float64 {
	for {
		v := lo + width*g.rng.Float64()
		if !g.used[v] {
			g.used[v] = true
			return v
		}
	}
}

// sigma is a fresh n_w deviation within ±2% of the Fig. 5 value.
func (g *gen) sigma() float64 { return g.fresh(fig5Sigma*0.98, fig5Sigma*0.04) }

// family returns n fresh sigmas base, base+step, ... with base drawn in
// [lo, lo+step).
func (g *gen) family(lo, step float64, n int) []float64 {
	for {
		base := lo + step*g.rng.Float64()
		vs := make([]float64, n)
		ok := true
		for i := range vs {
			vs[i] = base + step*float64(i)
			ok = ok && !g.used[vs[i]]
		}
		if ok {
			for _, v := range vs {
				g.used[v] = true
			}
			return vs
		}
	}
}

func specAt(counter int, sigma float64) core.Spec {
	s := experiments.Fig5Spec(counter)
	s.EyeJitter = dist.NewGaussian(0, sigma)
	return s
}

func solveReq(class string, counter int, sigma float64, backend string, round int) *request {
	r := &request{Class: class, Spec: specAt(counter, sigma), Counter: counter, Round: round}
	r.Path = "/v1/analyze"
	if class == clsSlip || class == clsHitSlip {
		r.Path = "/v1/slip"
	}
	env := struct {
		Spec    core.Spec `json:"spec"`
		Backend string    `json:"backend,omitempty"`
	}{r.Spec, backend}
	r.Body = mustJSON(env)
	return r
}

func sweepReq(class string, counter int, values []float64, batch bool, round int) *request {
	r := &request{Class: class, Path: "/v1/sweep", Spec: experiments.Fig5Spec(counter), Counter: counter,
		Values: values, Batch: batch, Round: round}
	env := struct {
		Spec   core.Spec `json:"spec"`
		Param  string    `json:"param"`
		Values []float64 `json:"values"`
		Batch  bool      `json:"batch,omitempty"`
	}{r.Spec, "stdnw", values, batch}
	r.Body = mustJSON(env)
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("svcbench: encoding a generated request: %v", err))
	}
	return b
}

// workload describes one traffic mix.
type workload struct {
	name    string
	clients int
	// classes are the request classes the timed phase issues.
	classes []string
	// warm returns the set-up requests. For cache-hot they are the
	// working set; otherwise they only touch every code path once.
	warm func(g *gen) []*request
	// round returns the k-th round of a closed-loop cold client; nil for
	// cache-hot, whose clients draw from the working set instead.
	round func(g *gen, k int) []*request
	// tailPct is the tail percentile reported when the run has enough
	// samples for it (ten or more beyond it).
	tailPct float64
}

// smokeRound exercises analyze, slip and kron on cheap counter-2 specs.
func smokeRound(g *gen) []*request {
	s := g.sigma()
	return []*request{
		solveReq(clsAnalyzeSmall, 2, s, "", -1),
		solveReq(clsSlip, 2, s, "", -1),
		solveReq(clsAnalyzeKron, 2, s, "kron", -1),
	}
}

var workloads = []*workload{
	{
		name:    "cold-solve",
		clients: 1,
		classes: []string{clsAnalyzeSmall, clsAnalyzeLarge, clsSlip, clsAnalyzeKron},
		warm:    smokeRound,
		// One round shares a fresh sigma across its four requests, so the
		// kron and explicit answers, and the slip and analyze answers, can
		// be compared for the same spec.
		round: func(g *gen, k int) []*request {
			s := g.sigma()
			return []*request{
				solveReq(clsAnalyzeSmall, 8, s, "", k),
				solveReq(clsAnalyzeLarge, 32, s, "", k),
				solveReq(clsSlip, 8, s, "", k),
				solveReq(clsAnalyzeKron, 8, s, "kron", k),
			}
		},
		tailPct: 0.9,
	},
	{
		name:    "sweep",
		clients: 1,
		classes: []string{clsSweepBatch, clsSweepFanout},
		warm: func(g *gen) []*request {
			return []*request{
				sweepReq(clsSweepBatch, 2, g.family(0.080, 0.001, 5), true, -1),
				sweepReq(clsSweepFanout, 2, g.family(0.084, 0.002, 4), false, -1),
			}
		},
		round: func(g *gen, k int) []*request {
			return []*request{
				// The BenchmarkSweepFig5 family, shifted by a fresh offset.
				sweepReq(clsSweepBatch, 8, g.family(0.080, 0.001, 20), true, k),
				sweepReq(clsSweepFanout, 8, g.family(0.084, 0.002, 8), false, k),
			}
		},
		tailPct: 0.9,
	},
	{
		name:    "cache-hot",
		clients: 2,
		classes: []string{clsHitAnalyze, clsHitSlip, clsHitKron, clsHitSweep},
		warm: func(g *gen) []*request {
			var set []*request
			for i := 0; i < 4; i++ {
				s := g.sigma()
				set = append(set,
					solveReq(clsHitAnalyze, 2, s, "", -1),
					solveReq(clsHitSlip, 2, s, "", -1),
					solveReq(clsHitKron, 2, s, "kron", -1))
			}
			for i := 0; i < 2; i++ {
				set = append(set, sweepReq(clsHitSweep, 2, g.family(0.080, 0.001, 5), true, -1))
			}
			return set
		},
		tailPct: 0.99,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
