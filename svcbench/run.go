package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/serve"
)

// setupRepeats is how many times a run constructs and warms a server;
// setup_s is the median, and the last server is the one measured.
const setupRepeats = 5

// record is one timed-phase request of a cold workload, kept with its
// response so round-level and post-run checks can reach it.
type record struct {
	req  *request
	resp response
	ok   bool
	why  string
	// Decoded bodies, by endpoint.
	analyze serve.AnalyzeBody
	slip    serve.SlipResponse
	sweep   serve.SweepBody
	points  []serve.AnalyzeBody
}

func (r *record) fail(format string, args ...any) {
	if r.ok {
		r.ok = false
		r.why = fmt.Sprintf(format, args...)
	}
}

// run is the state of one benchmark run.
type run struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool

	states   map[int]int // counter length -> product states
	problems []string    // failures that are not one timed request

	setupS   []float64
	h        *harness
	warm     []*request
	warmResp []response // last set-up's responses, aligned with warm
	ref      map[*request][]byte

	records   []*record            // cold workloads
	lat       map[string][]float64 // ms by class, timed phase
	probeLat  map[string][]float64 // ms by class, traced runs' probe requests
	attempted int
	failed    int
	hits      int // cache hits seen (headers, sweep point flags)
	lookups   int // cache lookups those were drawn from
	elapsed   time.Duration
	cpuUser   time.Duration
	cpuSys    time.Duration
	allocB    uint64
	peakRSSB  int64
}

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// setup constructs and warms a server setupRepeats times, keeping the last.
func (r *run) setup() error {
	r.states = map[int]int{}
	for _, c := range []int{2, 8, 32} {
		n, err := statesFor(c)
		if err != nil {
			return err
		}
		r.states[c] = n
	}
	for i := 0; i < setupRepeats; i++ {
		if r.h != nil {
			if err := r.h.close(); err != nil {
				return fmt.Errorf("closing set-up server: %w", err)
			}
			r.h = nil
		}
		// Every repeat draws the same set-up inputs, so each does the same
		// work and the last one's working set is the one measured.
		g := newGen(r.seed, 1)
		warm := r.w.warm(g)
		start := time.Now()
		h, err := startServer()
		if err != nil {
			return err
		}
		r.h = h
		resps := make([]response, len(warm))
		for j, q := range warm {
			resps[j] = h.do(q)
		}
		// A batch sweep's second request is its all-hit form: that is the
		// body cache-hot replays must reproduce.
		ref := map[*request][]byte{}
		for j, q := range warm {
			if q.Class == clsHitSweep {
				again := h.do(q)
				if again.err != nil {
					return fmt.Errorf("set-up sweep replay: %w", again.err)
				}
				ref[q] = again.body
			} else {
				ref[q] = resps[j].body
			}
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		r.warm, r.warmResp, r.ref = warm, resps, ref
	}
	for j, q := range r.warm {
		if err := r.checkWarm(q, r.warmResp[j]); err != nil {
			r.problem("set-up %s request %d: %v", q.Class, j, err)
		}
	}
	return nil
}

// checkWarm validates a set-up response (every set-up request misses).
func (r *run) checkWarm(q *request, resp response) error {
	if resp.err != nil {
		return resp.err
	}
	st := r.states[q.Counter]
	switch {
	case q.isSweep():
		_, _, err := checkSweep(resp.body, q, st, false)
		if err == nil && q.Class == clsHitSweep {
			_, _, err = checkSweep(r.ref[q], q, st, true)
		}
		return err
	case q.Path == "/v1/slip":
		_, err := checkSlip(resp.body, st)
		return err
	default:
		_, err := checkAnalyze(resp.body, st)
		return err
	}
}

// resources samples process user and system CPU time, cumulative heap allocation and
// peak resident set size.
func resources() (user, sys time.Duration, alloc uint64, peakRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		user, sys = time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
		peakRSS = ru.Maxrss * 1024 // kilobytes on Linux
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	return user, sys, alloc, peakRSS
}

// measure runs the timed phase.
func (r *run) measure() {
	runtime.GC()
	user0, sys0, alloc0, _ := resources()
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	r.lat = map[string][]float64{}
	if r.w.round != nil {
		r.measureCold(deadline)
	} else {
		r.measureHot(deadline)
	}
	r.elapsed = time.Since(start)
	user1, sys1, alloc1, rss := resources()
	r.cpuUser, r.cpuSys, r.allocB, r.peakRSSB = user1-user0, sys1-sys0, alloc1-alloc0, rss
}

// measureCold runs one closed-loop client through whole rounds until the
// deadline: a round in flight at the deadline completes, so every class
// gets the same number of samples.
func (r *run) measureCold(deadline time.Time) {
	g := newGen(r.seed, 2)
	for k := 0; time.Now().Before(deadline); k++ {
		r.records = append(r.records, r.runRound(r.w.round(g, k))...)
	}
	for _, rec := range r.records {
		r.attempted++
		if rec.resp.err == nil {
			r.lat[rec.req.Class] = append(r.lat[rec.req.Class], ms(rec.resp.latency))
		}
	}
}

// runRound sends one round of cold requests in order and checks them.
func (r *run) runRound(qs []*request) []*record {
	var round []*record
	for _, q := range qs {
		rec := &record{req: q, resp: r.h.do(q), ok: true}
		r.checkCold(rec)
		round = append(round, rec)
	}
	r.checkRound(round)
	return round
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkCold validates one cold response and counts its cache lookups.
func (r *run) checkCold(rec *record) {
	q, resp := rec.req, rec.resp
	if resp.err != nil {
		rec.fail("%v", resp.err)
		return
	}
	st := r.states[q.Counter]
	var err error
	switch {
	case q.isSweep():
		rec.sweep, rec.points, err = checkSweep(resp.body, q, st, false)
		r.lookups += len(q.Values)
		for _, p := range rec.sweep.Points {
			if p.Cached {
				r.hits++
			}
		}
	case q.Path == "/v1/slip":
		rec.slip, err = checkSlip(resp.body, st)
		r.countHeader(resp)
	default:
		rec.analyze, err = checkAnalyze(resp.body, st)
		r.countHeader(resp)
		if err == nil && headerInt(resp.cycles) != int64(rec.analyze.Cycles) {
			err = fmt.Errorf("body cycles %d, X-Solve-Cost-Cycles %q", rec.analyze.Cycles, resp.cycles)
		}
	}
	if err != nil {
		rec.fail("%v", err)
		return
	}
	if !q.isSweep() {
		if resp.cache != "miss" {
			rec.fail("X-Solve-Cost-Cache %q on a cold request", resp.cache)
		} else if headerInt(resp.states) != int64(st) {
			rec.fail("X-Solve-Cost-States %q, want %d", resp.states, st)
		}
	}
}

func (r *run) countHeader(resp response) {
	r.lookups++
	if resp.cache == "hit" {
		r.hits++
	}
}

// checkRound holds the four answers of one cold-solve round, which share a
// spec, to each other: kron agrees with explicit, /v1/slip with the slip
// section of /v1/analyze, and the slip solve took the analyze cycles.
func (r *run) checkRound(round []*record) {
	by := map[string]*record{}
	for _, rec := range round {
		by[rec.req.Class] = rec
	}
	small := by[clsAnalyzeSmall]
	if small == nil || !small.ok {
		return
	}
	if k := by[clsAnalyzeKron]; k != nil && k.ok {
		a, b := small.analyze, k.analyze
		if d, f := math.Abs(a.BER-b.BER), math.Abs(a.Slip.Flux-b.Slip.Flux); d > kronParity || f > kronParity {
			k.fail("kron vs explicit: |dBER| %.3g, |dflux| %.3g above %g", d, f, kronParity)
		}
	}
	if s := by[clsSlip]; s != nil && s.ok {
		if !slipAgrees(s.slip.Slip, small.analyze.Slip) {
			s.fail("/v1/slip %+v disagrees with /v1/analyze %+v", s.slip.Slip, small.analyze.Slip)
		} else if c := headerInt(s.resp.cycles); c != int64(small.analyze.Cycles) {
			s.fail("slip solve took %d cycles, analyze of the same spec %d", c, small.analyze.Cycles)
		}
	}
}

// hotTally is one cache-hot client's share of the timed phase.
type hotTally struct {
	lat      map[string][]float64
	n, fails int
	hits     int
	lookups  int
	why      string
}

// measureHot runs the cache-hot clients: each draws requests from the
// working set with its own seeded stream until the deadline, and checks
// every answer against the set-up body byte for byte.
func (r *run) measureHot(deadline time.Time) {
	tallies := make([]hotTally, r.w.clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			t.lat = map[string][]float64{}
			rng := rand.New(rand.NewPCG(r.seed, 10+uint64(c)))
			for time.Now().Before(deadline) {
				q := r.warm[rng.IntN(len(r.warm))]
				resp := r.h.do(q)
				t.n++
				err := r.checkHot(q, resp, t)
				if err != nil {
					t.fails++
					if t.why == "" {
						t.why = fmt.Sprintf("%s: %v", q.Class, err)
					}
					continue
				}
				t.lat[q.Class] = append(t.lat[q.Class], ms(resp.latency))
			}
		}(c)
	}
	wg.Wait()
	for _, t := range tallies {
		r.attempted += t.n
		r.failed += t.fails
		r.hits += t.hits
		r.lookups += t.lookups
		if t.why != "" {
			r.problem("cache-hot: %s", t.why)
		}
		for c, xs := range t.lat {
			r.lat[c] = append(r.lat[c], xs...)
		}
	}
}

func (r *run) checkHot(q *request, resp response, t *hotTally) error {
	if resp.err != nil {
		return resp.err
	}
	if q.isSweep() {
		// Sweep responses carry no cache header; every point of the
		// reference body is a hit (checked at set-up), so byte equality
		// proves these are too.
		t.lookups += len(q.Values)
		if string(resp.body) == string(r.ref[q]) {
			t.hits += len(q.Values)
			return nil
		}
		return fmt.Errorf("sweep body differs from its set-up body")
	}
	t.lookups++
	if resp.cache != "hit" {
		return fmt.Errorf("X-Solve-Cost-Cache %q", resp.cache)
	}
	t.hits++
	if string(resp.body) != string(r.ref[q]) {
		return fmt.Errorf("body differs from its set-up body")
	}
	return nil
}

// verifySweeps recomputes a seeded sample of batch-sweep points pointwise
// (core.Build + Model.Solve) and holds the served BER to them.
func (r *run) verifySweeps(sample int) {
	var batch []*record
	for _, rec := range r.records {
		if rec.req.Class == clsSweepBatch && rec.ok {
			batch = append(batch, rec)
		}
	}
	if len(batch) == 0 {
		return
	}
	rng := rand.New(rand.NewPCG(r.seed, 3))
	for i := 0; i < sample; i++ {
		rec := batch[rng.IntN(len(batch))]
		j := rng.IntN(len(rec.req.Values))
		m, err := core.Build(rec.req.pointSpec(j))
		if err != nil {
			rec.fail("pointwise rebuild of point %d: %v", j, err)
			continue
		}
		a, err := m.Solve(core.SolveOptions{})
		if err != nil {
			rec.fail("pointwise solve of point %d: %v", j, err)
			continue
		}
		if got := rec.points[j].BER; !relClose(got, a.BER) {
			rec.fail("point %d: batch BER %g vs pointwise %g", j, got, a.BER)
		}
	}
}

// tallyCold folds the cold records' verdicts into the run's counts.
func (r *run) tallyCold() {
	r.failed = 0
	for _, rec := range r.records {
		if !rec.ok {
			r.failed++
			r.problem("round %d %s: %s", rec.req.Round, rec.req.Class, rec.why)
		}
	}
}
