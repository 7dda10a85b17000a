package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"cdrstoch/internal/serve"
)

// coldClasses are the classes with an end-to-end median in the per-layer
// report; breakdownClasses those that get a layer breakdown.
var (
	coldClasses      = []string{clsAnalyzeSmall, clsAnalyzeLarge, clsSlip, clsAnalyzeKron, clsSweepBatch, clsSweepFanout}
	breakdownClasses = append(append([]string(nil), coldClasses...), "hit")
)

// hotReplayPasses is how many times the traced replay walks the requests
// it replays as cache hits.
const hotReplayPasses = 300

// perLayer lists the metrics a -trace 1 run reports, on every workload.
func perLayer() []metricDef {
	d := []metricDef{
		{"serve.handler_us", "us"}, {"serve.engine_hit_us", "us"},
		{"serve.http_overhead_us", "us"}, {"serve.loopback_us", "us"},
		{"core.decode_us", "us"}, {"core.validate_us", "us"}, {"speckey.hash_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"core.build_ms.c8", "ms"}, {"core.build_ms.c32", "ms"}, {"core.build_shell_ms.c8", "ms"},
		{"multigrid.setup_ms.c8", "ms"}, {"multigrid.setup_ms.c32", "ms"},
	}
	for _, c := range []string{".c8", ".c32"} {
		d = append(d,
			metricDef{"multigrid.cycles" + c, "count"},
			metricDef{"multigrid.solve_ms" + c, "ms"},
			metricDef{"multigrid.smooth_fine_ms" + c, "ms"},
			metricDef{"multigrid.smooth_coarse_ms" + c, "ms"},
			metricDef{"multigrid.gth_ms" + c, "ms"},
			metricDef{"multigrid.transfer_ms" + c, "ms"},
			metricDef{"spmat.spmvs" + c, "count"},
			metricDef{"spmat.bytes_moved_mb" + c, "MB"})
	}
	d = append(d,
		metricDef{"kron.solve_ms.c8", "ms"}, metricDef{"kron.cycles.c8", "count"},
		metricDef{"kron.matrix_bytes", "bytes"},
		metricDef{"passage.qs_ms.c8", "ms"}, metricDef{"passage.qs_iters.c8", "count"},
		metricDef{"core.measures_ms", "ms"},
		metricDef{"sweep.point_ms", "ms"}, metricDef{"sweep.cycles_per_point", "count"},
		metricDef{"sweep.warm_share", "ratio"}, metricDef{"sweep.setup_reuse_share", "ratio"})
	for _, c := range coldClasses {
		d = append(d, metricDef{c + "_p50_ms", "ms"})
	}
	for _, c := range breakdownClasses {
		d = append(d, metricDef{"unattributed_ms." + c, "ms"})
	}
	return append(d, metricDef{"trace_overhead_pct", "%"})
}

// layerShare is one layer's part of a class's end-to-end median.
type layerShare struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// classBreakdown splits one class's end-to-end median among layers.
type classBreakdown struct {
	Class          string       `json:"class"`
	Requests       int          `json:"requests"`
	E2EMS          float64      `json:"end_to_end_p50_ms"`
	Layers         []layerShare `json:"layers"`
	UnattributedMS float64      `json:"unattributed_ms"`
}

// hitProbes is how many loopback cache hits a cold workload's traced run
// sends per probed request, for the hit latency the serve layer explains.
const hitProbes = 25

// probe sends, after the timed phase of a traced run, what the replay
// needs beyond it so that every traced run measures every layer: one
// round of each cold workload whose classes this one lacks, and, on the
// cold workloads, loopback cache hits on the requests of the last timed
// round. Probe latencies are kept apart from the timed phase's.
func (r *run) probe() (cold []*record, hits []*request) {
	r.probeLat = map[string][]float64{}
	hits0, lookups0 := r.hits, r.lookups
	defer func() { r.hits, r.lookups = hits0, lookups0 }()
	for i, w := range workloads {
		if w == r.w || w.round == nil {
			continue
		}
		for _, rec := range r.runRound(w.round(newGen(r.seed, 4+uint64(i)), -1)) {
			if !rec.ok {
				r.problem("probe %s: %s", rec.req.Class, rec.why)
				continue
			}
			r.probeLat[rec.req.Class] = append(r.probeLat[rec.req.Class], ms(rec.resp.latency))
			cold = append(cold, rec)
		}
	}
	if r.w.round == nil {
		return cold, r.warm
	}
	// The last round is the one surely still cached: a sweep run inserts
	// more bodies than the cache holds.
	last := r.records[len(r.records)-1].req.Round
	for _, rec := range r.records {
		if rec.req.Round != last || !rec.ok {
			continue
		}
		hits = append(hits, rec.req)
		for i := 0; i < hitProbes; i++ {
			resp := r.h.do(rec.req)
			if err := r.checkProbeHit(rec, resp); err != nil {
				r.problem("probe hit on %s: %v", rec.req.Class, err)
				continue
			}
			r.probeLat["hit"] = append(r.probeLat["hit"], ms(resp.latency))
		}
	}
	return cold, hits
}

// checkProbeHit holds a repeated cold request to its first answer: the
// same bytes from the cache (every point cached, for a sweep).
func (r *run) checkProbeHit(rec *record, resp response) error {
	if resp.err != nil {
		return resp.err
	}
	if rec.req.isSweep() {
		_, _, err := checkSweep(resp.body, rec.req, r.states[rec.req.Counter], true)
		return err
	}
	if resp.cache != "hit" {
		return fmt.Errorf("X-Solve-Cost-Cache %q", resp.cache)
	}
	if string(resp.body) != string(rec.resp.body) {
		return fmt.Errorf("body differs from the first answer")
	}
	return nil
}

// traceReplay replays requests of the run twice each, traced and
// untraced, alternating which goes first, and derives the per-layer
// metrics from the traced spans. The tracing overhead is the median over
// replayed requests of the traced replay's extra time.
func (r *run) traceReplay() (map[string]float64, []classBreakdown, []span) {
	probes, hits := r.probe()
	// The first half of the timed rounds (rounding up) keeps a traced run
	// within about twice the length of an untraced one.
	rounds := 0
	for _, rec := range r.records {
		rounds = max(rounds, rec.req.Round+1)
	}
	var cold []*record
	for _, rec := range r.records {
		if rec.ok && rec.req.Round < (rounds+1)/2 {
			cold = append(cold, rec)
		}
	}
	cold = append(cold, probes...)

	rp := newReplayer(r.h)
	defer rp.close()
	t := newTracer()
	rp.cnt = &tally{}
	quiet := *rp
	quiet.cnt = nil
	// both runs the traced and the untraced replay of one request, the
	// untraced first on even turns, and keeps the traced one's overhead.
	var overhead []float64
	both := func(turn int, runT, runU func()) {
		var dT, dU time.Duration
		if turn%2 == 0 {
			dU = timed(runU)
			dT = timed(runT)
		} else {
			dT = timed(runT)
			dU = timed(runU)
		}
		overhead = append(overhead, 100*(float64(dT)/float64(dU)-1))
	}
	solves := map[int]int{} // request id -> solves in it
	req := 0
	for i, rec := range cold {
		req++
		id := req
		var outT, outU outcome
		var errT, errU error
		both(i,
			func() { outT, errT = rp.replay(sctx{t: t, req: id}, rec.req) },
			func() { outU, errU = quiet.replay(sctx{}, rec.req) })
		r.crossCheck(rec, outT, errT, "traced")
		r.crossCheck(rec, outU, errU, "untraced")
		solves[id] = len(outT.cycles)
	}
	for pass := 0; pass < hotReplayPasses; pass++ {
		for i, q := range hits {
			req++
			id := req
			var errT, errU error
			both(pass+i,
				func() { errT = rp.replayHit(sctx{t: t, req: id}, q) },
				func() { errU = quiet.replayHit(sctx{}, q) })
			req++
			errH := rp.timeHandler(sctx{t: t, req: req}, q)
			for _, err := range []error{errT, errU, errH} {
				if err != nil {
					r.problem("hit replay of %s: %v", q.Class, err)
				}
			}
		}
	}
	for _, rec := range probes {
		if !rec.ok {
			r.problem("probe %s: %s", rec.req.Class, rec.why)
		}
	}
	out, bd := r.layerMetrics(t.spans, rp.cnt, solves)
	if len(overhead) > 0 {
		out["trace_overhead_pct"] = median(overhead)
	}
	return out, bd, t.spans
}

// servedCounts are the cycles the server reported for a cold request, per
// solve, and the X-Solve-Cost-Spmvs of a single analyze solve (-1 when
// the header does not count the solve alone).
func servedCounts(rec *record) (cycles []int, spmvs int64) {
	switch rec.req.Class {
	case clsSlip:
		return []int{int(headerInt(rec.resp.cycles))}, -1
	case clsSweepBatch:
		for _, p := range rec.sweep.Points {
			cycles = append(cycles, p.Cycles)
		}
		return cycles, -1
	case clsSweepFanout:
		for _, p := range rec.points {
			cycles = append(cycles, p.Cycles)
		}
		return cycles, -1
	}
	return []int{rec.analyze.Cycles}, headerInt(rec.resp.spmvs)
}

// crossCheck holds a replay to what the server reported for the same
// request: body cycles, X-Solve-Cost-Cycles and the replay's
// Result.Cycles must be equal, and so must the SpMV counts.
func (r *run) crossCheck(rec *record, out outcome, err error, label string) {
	if err != nil {
		rec.fail("%s replay: %v", label, err)
		return
	}
	cycles, spmvs := servedCounts(rec)
	if fmt.Sprint(cycles) != fmt.Sprint(out.cycles) {
		rec.fail("%s replay took %v cycles, the server reported %v", label, out.cycles, cycles)
	} else if spmvs >= 0 && (len(out.spmvs) != 1 || out.spmvs[0] != spmvs) {
		rec.fail("%s replay did %v SpMVs, X-Solve-Cost-Spmvs %d", label, out.spmvs, spmvs)
	}
}

// layerMetrics derives the per-layer metrics and class breakdowns.
func (r *run) layerMetrics(spans []span, cnt *tally, solves map[int]int) (map[string]float64, []classBreakdown) {
	names := map[int]string{}
	byReq := map[int][]span{}
	for _, s := range spans {
		names[s.ID] = s.Name
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	self := selfTimes(spans)
	// Spans of the workload's own requests come first; the probes only
	// fill in layers the workload does not run.
	own := map[string]bool{}
	for _, c := range r.w.classes {
		own[c] = true
	}
	own["hit"] = r.w.round == nil
	ownSamples, allSamples := map[string][]float64{}, map[string][]float64{}
	var cls string
	add := func(k string, v float64) {
		if own[cls] {
			ownSamples[k] = append(ownSamples[k], v)
		}
		allSamples[k] = append(allSamples[k], v)
	}
	for _, s := range spans {
		cls = s.Class
		selfMS, durMS := float64(self[s.ID])/1e6, float64(s.End-s.Start)/1e6
		c := fmt.Sprintf(".c%d", s.Counter)
		switch s.Name {
		case "core.decode", "core.validate", "speckey.hash", "serve.engine_hit", "serve.handler":
			add(s.Name, 1000*selfMS)
		case "core.build", "core.build_shell", "multigrid.setup", "passage.qs", "kron.solve":
			add(s.Name+c, durMS)
		case "multigrid.solve":
			add("multigrid.solve"+c, durMS)
			add("multigrid.transfer"+c, selfMS)
		case "multigrid.smooth_fine", "multigrid.smooth_coarse", "multigrid.gth":
			if names[s.Parent] == "multigrid.solve" {
				add(s.Name+c, durMS)
			}
		case "sweep.point":
			add("sweep.point", durMS)
		}
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	samples := map[string][]float64{}
	for k, xs := range allSamples {
		if o := ownSamples[k]; len(o) > 0 {
			xs = o
		}
		samples[k] = xs
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	out := map[string]float64{
		"core.decode_us":         med(samples["core.decode"]),
		"core.validate_us":       med(samples["core.validate"]),
		"speckey.hash_us":        med(samples["speckey.hash"]),
		"serve.handler_us":       med(samples["serve.handler"]),
		"serve.engine_hit_us":    med(samples["serve.engine_hit"]),
		"core.build_ms.c8":       med(samples["core.build.c8"]),
		"core.build_ms.c32":      med(samples["core.build.c32"]),
		"core.build_shell_ms.c8": med(samples["core.build_shell.c8"]),
		"multigrid.setup_ms.c8":  med(samples["multigrid.setup.c8"]),
		"multigrid.setup_ms.c32": med(samples["multigrid.setup.c32"]),
		"kron.solve_ms.c8":       med(samples["kron.solve.c8"]),
		"kron.cycles.c8":         med(cnt.m["kron.cycles.c8"]),
		"kron.matrix_bytes":      med(cnt.m["kron.matrix_bytes"]),
		"passage.qs_ms.c8":       med(samples["passage.qs.c8"]),
		"passage.qs_iters.c8":    med(cnt.m["passage.qs_iters.c8"]),
		"sweep.point_ms":         med(samples["sweep.point"]),
	}
	if r.lookups > 0 {
		out["cache.hit_ratio"] = float64(r.hits) / float64(r.lookups)
	}
	for _, c := range []string{".c8", ".c32"} {
		out["multigrid.cycles"+c] = med(cnt.m["multigrid.cycles"+c])
		out["multigrid.solve_ms"+c] = med(samples["multigrid.solve"+c])
		out["multigrid.smooth_fine_ms"+c] = med(samples["multigrid.smooth_fine"+c])
		out["multigrid.smooth_coarse_ms"+c] = med(samples["multigrid.smooth_coarse"+c])
		out["multigrid.gth_ms"+c] = med(samples["multigrid.gth"+c])
		out["multigrid.transfer_ms"+c] = med(samples["multigrid.transfer"+c])
		out["spmat.spmvs"+c] = med(cnt.m["spmat.spmvs"+c])
		out["spmat.bytes_moved_mb"+c] = med(cnt.m["spmat.bytes_moved_mb"+c])
	}
	if pts := sum(cnt.m["sweep.points"]); pts > 0 {
		out["sweep.cycles_per_point"] = sum(cnt.m["sweep.cycles"]) / pts
		out["sweep.warm_share"] = sum(cnt.m["sweep.warm"]) / pts
		out["sweep.setup_reuse_share"] = sum(cnt.m["sweep.reused"]) / pts
	}

	// Breakdowns: each replayed request's wall time split among layers.
	perClass := map[string]map[string][]float64{}
	reqs := map[string]int{}
	var measures []float64
	for id, ss := range byReq {
		root := ss[0]
		if root.Name != "request" {
			continue // a whole-handler timing, not a replayed request
		}
		cls := root.Class
		if perClass[cls] == nil {
			perClass[cls] = map[string][]float64{}
		}
		reqs[cls]++
		att := attribute(ss)
		for name, ns := range att {
			perClass[cls][name] = append(perClass[cls][name], float64(ns)/1e6)
		}
		if n := solves[id]; n > 0 {
			measures = append(measures, float64(att["core.measures"])/1e6/float64(n))
		}
	}
	out["core.measures_ms"] = med(measures)
	// End-to-end medians come from the timed phase where the workload has
	// the class, from the probes otherwise.
	e2e := map[string]float64{}
	for _, c := range coldClasses {
		xs := r.lat[c]
		if len(xs) == 0 {
			xs = r.probeLat[c]
		}
		if len(xs) > 0 {
			e2e[c] = median(xs)
			out[c+"_p50_ms"] = e2e[c]
		}
	}
	var hits []float64
	for _, c := range []string{clsHitAnalyze, clsHitSlip, clsHitKron, clsHitSweep} {
		hits = append(hits, r.lat[c]...)
	}
	if len(hits) == 0 {
		hits = r.probeLat["hit"]
	}
	if len(hits) > 0 {
		e2e["hit"] = median(hits)
		out["serve.http_overhead_us"] = out["serve.handler_us"] - out["serve.engine_hit_us"]
		out["serve.loopback_us"] = 1000*e2e["hit"] - out["serve.handler_us"]
	}
	var bd []classBreakdown
	for _, c := range breakdownClasses {
		layers, ok := perClass[c]
		if !ok || e2e[c] == 0 {
			continue
		}
		b := classBreakdown{Class: c, Requests: reqs[c], E2EMS: e2e[c], UnattributedMS: e2e[c]}
		for name, xs := range layers {
			if name == "request" {
				continue // replay glue, not a layer of the server
			}
			// A layer missing from some requests counts 0 there.
			for len(xs) < reqs[c] {
				xs = append(xs, 0)
			}
			m := median(xs)
			b.Layers = append(b.Layers, layerShare{name, m})
			b.UnattributedMS -= m
		}
		if c == "hit" {
			// Derived, not traced: the client's median minus the handler's,
			// the time a hit spends in the kernel's loopback path and the
			// HTTP client and server connection code.
			b.Layers = append(b.Layers, layerShare{"serve.loopback", out["serve.loopback_us"] / 1000})
			b.UnattributedMS -= out["serve.loopback_us"] / 1000
		}
		sort.Slice(b.Layers, func(i, j int) bool { return b.Layers[i].MS > b.Layers[j].MS })
		out["unattributed_ms."+c] = b.UnattributedMS
		bd = append(bd, b)
	}
	return out, bd
}

// countsOf extracts the program-reported counts of one response: cycles
// and SpMVs of a solve, or the per-point cycles of a sweep.
func countsOf(q *request, resp response) []int64 {
	if resp.err != nil {
		return nil
	}
	switch {
	case q.isSweep():
		var b serve.SweepBody
		if json.Unmarshal(resp.body, &b) != nil {
			return nil
		}
		var out []int64
		for _, p := range b.Points {
			var a serve.AnalyzeBody
			if json.Unmarshal(p.Result, &a) != nil {
				return nil
			}
			out = append(out, int64(a.Cycles))
		}
		return out
	case q.Path == "/v1/slip":
		return []int64{headerInt(resp.cycles), headerInt(resp.spmvs)}
	default:
		var a serve.AnalyzeBody
		if json.Unmarshal(resp.body, &a) != nil {
			return nil
		}
		return []int64{int64(a.Cycles), headerInt(resp.spmvs)}
	}
}

// checkCounts records this run's cycle and SpMV counts under path and
// fails whatever differs from an earlier run of the same seed and tree.
func (r *run) checkCounts(path, tree string) {
	counts := map[string][]int64{}
	owner := map[string]*record{}
	for j, q := range r.warm {
		if c := countsOf(q, r.warmResp[j]); c != nil {
			counts[fmt.Sprintf("setup/%d/%s", j, q.Class)] = c
		}
	}
	for _, rec := range r.records {
		k := fmt.Sprintf("round/%d/%s", rec.req.Round, rec.req.Class)
		if c := countsOf(rec.req, rec.resp); c != nil {
			counts[k] = c
			owner[k] = rec
		}
	}
	diff, err := compareCounts(path, tree, counts)
	if err != nil {
		r.problem("count file: %v", err)
	}
	for _, d := range diff {
		k, _, _ := strings.Cut(d, ":")
		if rec := owner[k]; rec != nil {
			rec.fail("counts changed between runs of one seed: %s", d)
		} else {
			r.problem("counts changed between runs of one seed: %s", d)
		}
	}
}
