package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/passage"
	"cdrstoch/internal/serve"
	"cdrstoch/internal/serve/speckey"
	"cdrstoch/internal/spmat"
	"cdrstoch/internal/sweep"
)

// The traced replay re-issues a run's requests as direct calls into the
// public functions the engine calls, in the engine's order and with its
// configuration, and wraps each call in a span. Counts the calls return
// (cycles, SpMVs, power steps) are tallied next to the spans.

// envelope decodes every request shape the server accepts.
type envelope struct {
	Spec    core.Spec `json:"spec"`
	Async   bool      `json:"async"`
	Backend string    `json:"backend,omitempty"`
	Param   string    `json:"param"`
	Values  []float64 `json:"values"`
	Batch   bool      `json:"batch"`
}

func decodeEnvelope(body []byte) (envelope, error) {
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&env)
	return env, err
}

// solveWorkers is the engine's default team width: GOMAXPROCS split over
// the 4 solve slots, at least 1.
func solveWorkers() int {
	return max(1, runtime.GOMAXPROCS(0)/4)
}

// engineConfig is the multigrid configuration the engine's solves run
// with: core's defaults (W-cycles, 2+2 smoothing, 1e-12) on a team.
func engineConfig(ctx context.Context, pool *spmat.Pool) multigrid.Config {
	return multigrid.Config{Cycle: multigrid.WCycle, PreSmooth: 2, PostSmooth: 2, Pool: pool, Ctx: ctx}
}

// tally collects counts by metric name.
type tally struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (t *tally) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = map[string][]float64{}
	}
	t.m[name] = append(t.m[name], v)
	t.mu.Unlock()
}

// replayer holds what a replay needs across requests.
type replayer struct {
	h       *harness
	handler http.Handler
	pools   chan *spmat.Pool // one team per concurrent solve, as the engine's slots
	cnt     *tally           // nil on the untraced replay
}

func newReplayer(h *harness) *replayer {
	rp := &replayer{h: h, handler: h.srv.Handler(), pools: make(chan *spmat.Pool, 4)}
	for i := 0; i < cap(rp.pools); i++ {
		rp.pools <- spmat.NewPool(solveWorkers())
	}
	return rp
}

func (rp *replayer) close() {
	for i := 0; i < cap(rp.pools); i++ {
		(<-rp.pools).Close()
	}
}

// outcome is what one replayed request computed, for the cross-checks.
type outcome struct {
	cycles []int   // per solve, request order
	spmvs  []int64 // per explicit or kron solve
	ber    []float64
}

// levelParts names a multigrid result's per-level smoothing time:
// finest level, middle levels, and the coarsest (direct GTH) level.
func levelParts(prefix string, st []multigrid.LevelStat) []derivedPart {
	var fine, mid, last int64
	for i, l := range st {
		switch {
		case i == 0:
			fine = l.SmoothNS
		case i == len(st)-1:
			last = l.SmoothNS
		default:
			mid += l.SmoothNS
		}
	}
	return []derivedPart{{prefix + ".smooth_fine", fine}, {prefix + ".smooth_coarse", mid}, {prefix + ".gth", last}}
}

// replay re-issues one request under c and returns what it computed.
func (rp *replayer) replay(c sctx, q *request) (outcome, error) {
	c.class, c.counter = q.Class, q.Counter
	c, end := c.begin("request")
	defer end()
	var env envelope
	var err error
	c.do("core.decode", func() { env, err = decodeEnvelope(q.Body) })
	if err != nil {
		return outcome{}, err
	}
	c.do("core.validate", func() { err = env.Spec.Validate() })
	if err != nil {
		return outcome{}, err
	}
	switch q.Class {
	case clsSweepBatch:
		return rp.batch(c, env)
	case clsSweepFanout:
		return rp.fanout(c, env)
	}
	pool := <-rp.pools
	defer func() { rp.pools <- pool }()
	var out outcome
	err = rp.solveOne(c, env.Spec, q.Class, pool, &out)
	return out, err
}

// solveOne is the engine's per-spec path: hash, build, solve, measures,
// encode; slip adds the quasi-stationary refinement.
func (rp *replayer) solveOne(c sctx, spec core.Spec, class string, pool *spmat.Pool, out *outcome) error {
	var err error
	var key string
	c.do("speckey.hash", func() { key, err = speckey.Hash(spec) })
	if err != nil {
		return err
	}
	suffix := fmt.Sprintf(".c%d", spec.CounterLen)
	meter := cost.NewMeter()
	ctx := cost.ContextWith(context.Background(), meter)
	var m *core.Model
	var a *core.Analysis
	if class == clsAnalyzeKron {
		c.do("core.build_shell", func() { m, err = core.BuildShell(spec) })
		if err != nil {
			return err
		}
		sc, end := c.begin("kron.solve")
		start := sc.parentStart()
		a, err = m.SolveKron(core.SolveOptions{Multigrid: engineConfig(ctx, pool)})
		if err == nil && len(a.Multigrid.LevelStats) == 2 {
			// The matrix-free solver reports its implicit fine level and
			// the explicit coarse hierarchy below it.
			st := a.Multigrid.LevelStats
			sc.derive(start, []derivedPart{{"kron.smooth_fine", st[0].SmoothNS}, {"kron.coarse_solve", st[1].SmoothNS}})
		}
		end()
		if err != nil {
			return err
		}
		rp.cnt.add("kron.cycles"+suffix, float64(a.Multigrid.Cycles))
		rp.cnt.add("kron.matrix_bytes", float64(m.Desc.MemoryBytes()))
	} else {
		c.do("core.build", func() { m, err = core.Build(spec) })
		if err != nil {
			return err
		}
		var solver *multigrid.Solver
		c.do("multigrid.setup", func() {
			parts, herr := m.Hierarchy(4)
			if herr != nil {
				err = herr
				return
			}
			solver, err = multigrid.New(m.P, parts, engineConfig(ctx, pool))
		})
		if err != nil {
			return err
		}
		sc, end := c.begin("multigrid.solve")
		start := sc.parentStart()
		res, serr := solver.Solve(nil)
		if serr == nil {
			sc.derive(start, levelParts("multigrid", res.LevelStats))
		}
		end()
		if serr != nil {
			return serr
		}
		if !res.Converged {
			return fmt.Errorf("replay: multigrid unconverged: %v", res)
		}
		a = &core.Analysis{Pi: res.Pi, Multigrid: res}
		rp.cnt.add("multigrid.cycles"+suffix, float64(res.Cycles))
		c.do("core.measures", func() { a.BER = m.BER(res.Pi) })
	}
	rep := meter.Finish()
	out.cycles = append(out.cycles, a.Multigrid.Cycles)
	out.spmvs = append(out.spmvs, rep.Pool.SpMVs)
	out.ber = append(out.ber, a.BER)
	if m.P != nil {
		rp.cnt.add("spmat.spmvs"+suffix, float64(rep.Pool.SpMVs))
		// Computed, not measured: each product streams the stored values
		// and column indices (16 B per entry), the row pointers, and reads
		// and writes one state vector.
		n, nnz := int64(m.NumStates()), int64(m.P.NNZ())
		rp.cnt.add("spmat.bytes_moved_mb"+suffix, float64(rep.Pool.SpMVs*(16*nnz+8*(n+1)+16*n))/1e6)
	}
	var slip serve.SlipBody
	c.do("core.measures", func() { slip, err = slipSection(m, a.Pi) })
	if err != nil {
		return err
	}
	if class == clsSlip {
		var qs passage.QuasiStationaryResult
		c.do("passage.qs", func() {
			qs, err = m.SlipQuasiStationaryOpt(passage.QSOptions{Ctx: ctx, Workers: solveWorkers()})
		})
		if err != nil {
			return err
		}
		rp.cnt.add("passage.qs_iters"+suffix, float64(qs.Iterations))
		var cber float64
		c.do("core.measures", func() { cber = m.BER(qs.Nu) })
		c.do("serve.encode", func() {
			_, err = json.Marshal(serve.SlipResponse{SpecKey: key, States: m.NumStates(), Slip: slip,
				HazardPerBit: &qs.HazardPerStep, ConditionedBER: &cber})
		})
		return err
	}
	c.do("serve.encode", func() { _, err = analyzeJSON(key, m, a, slip) })
	return err
}

// parentStart is the start of the span c is positioned in.
func (c sctx) parentStart() int64 {
	if c.t == nil {
		return 0
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.t.spans[c.parent-1].Start
}

func slipSection(m *core.Model, pi []float64) (serve.SlipBody, error) {
	f, err := m.SlipStats(pi)
	if err != nil {
		return serve.SlipBody{}, err
	}
	out := serve.SlipBody{Flux: f.Flux, OutsideMass: f.OutsideMass, TargetMass: f.TargetMass,
		MeanTimeBetween: finite(f.MeanTimeBetween)}
	if m.Spec.WrapPhase {
		rate, mtbs, err := m.WrapSlipRate(pi)
		if err != nil {
			return out, err
		}
		out.WrapRate, out.WrapMeanTimeBetween = finite(rate), finite(mtbs)
	}
	return out, nil
}

// finite boxes v for JSON as the engine does: null when not finite.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func analyzeJSON(key string, m *core.Model, a *core.Analysis, slip serve.SlipBody) ([]byte, error) {
	return json.Marshal(serve.AnalyzeBody{SpecKey: key, States: m.NumStates(), BER: a.BER,
		Converged: a.Multigrid.Converged, Cycles: a.Multigrid.Cycles, Residual: a.Multigrid.Residual, Slip: slip})
}

// batch replays a batch sweep: one sweep.Session chains the points, each
// hashed, solved (build, setup refresh and warm-started solve inside
// Session.Solve), measured and encoded.
func (rp *replayer) batch(c sctx, env envelope) (outcome, error) {
	pool := <-rp.pools
	defer func() { rp.pools <- pool }()
	sess := sweep.New(sweep.Options{Solve: core.SolveOptions{Multigrid: multigrid.Config{Pool: pool}}})
	var out outcome
	for _, v := range env.Values {
		spec := env.Spec
		spec.EyeJitter = dist.NewGaussian(0, v)
		var err error
		c.do("core.validate", func() { err = spec.Validate() })
		if err != nil {
			return out, err
		}
		var key string
		c.do("speckey.hash", func() { key, err = speckey.Hash(spec) })
		if err != nil {
			return out, err
		}
		sc, end := c.begin("sweep.point")
		start := sc.parentStart()
		pt, err := sess.Solve(context.Background(), spec)
		if err == nil {
			sc.derive(start, levelParts("multigrid", pt.Analysis.Multigrid.LevelStats))
		}
		end()
		if err != nil {
			return out, err
		}
		rp.cnt.add("sweep.cycles", float64(pt.Analysis.Multigrid.Cycles))
		out.cycles = append(out.cycles, pt.Analysis.Multigrid.Cycles)
		out.ber = append(out.ber, pt.Analysis.BER)
		var slip serve.SlipBody
		c.do("core.measures", func() { slip, err = slipSection(pt.Model, pt.Analysis.Pi) })
		if err != nil {
			return out, err
		}
		c.do("serve.encode", func() { _, err = analyzeJSON(key, pt.Model, pt.Analysis, slip) })
		if err != nil {
			return out, err
		}
	}
	st := sess.Stats()
	rp.cnt.add("sweep.points", float64(st.Points))
	rp.cnt.add("sweep.warm", float64(st.WarmStarted))
	rp.cnt.add("sweep.reused", float64(st.ReusedSetup))
	return out, nil
}

// fanout replays a fan-out sweep: every point is an independent analyze
// solve, at most 4 at once (the engine's solve slots).
func (rp *replayer) fanout(c sctx, env envelope) (outcome, error) {
	outs := make([]outcome, len(env.Values))
	errs := make([]error, len(env.Values))
	var wg sync.WaitGroup
	for i, v := range env.Values {
		spec := env.Spec
		spec.EyeJitter = dist.NewGaussian(0, v)
		wg.Add(1)
		go func(i int, spec core.Spec) {
			defer wg.Done()
			pool := <-rp.pools
			defer func() { rp.pools <- pool }()
			pc, end := c.begin("sweep.fanout_point")
			defer end()
			if errs[i] = spec.Validate(); errs[i] == nil {
				errs[i] = rp.solveOne(pc, spec, clsSweepFanout, pool, &outs[i])
			}
		}(i, spec)
	}
	wg.Wait()
	var out outcome
	for i := range outs {
		if errs[i] != nil {
			return out, errs[i]
		}
		out.cycles = append(out.cycles, outs[i].cycles...)
		out.spmvs = append(out.spmvs, outs[i].spmvs...)
		out.ber = append(out.ber, outs[i].ber...)
	}
	return out, nil
}

// replayHit re-issues one cache-hot request as the handler's steps:
// decode, validate, hash, the engine's cache lookup, and the write.
func (rp *replayer) replayHit(c sctx, q *request) error {
	c.class, c.counter = "hit", q.Counter
	c, end := c.begin("request")
	defer end()
	var env envelope
	var err error
	c.do("core.decode", func() { env, err = decodeEnvelope(q.Body) })
	if err != nil {
		return err
	}
	c.do("core.validate", func() { err = env.Spec.Validate() })
	if err != nil {
		return err
	}
	if !q.isSweep() {
		c.do("speckey.hash", func() { _, err = speckey.Hash(env.Spec) })
		if err != nil {
			return err
		}
	}
	eng := rp.h.srv.Engine()
	ctx := context.Background()
	var body []byte
	cached := true
	c.do("serve.engine_hit", func() {
		switch {
		case q.isSweep() && env.Batch:
			body, err = eng.SweepBatch(ctx, env.Spec, env.Param, env.Values)
		case q.isSweep():
			body, err = eng.Sweep(ctx, env.Spec, env.Param, env.Values)
		case q.Path == "/v1/slip":
			body, cached, err = eng.Slip(ctx, env.Spec)
		default:
			body, cached, err = eng.AnalyzeBackend(ctx, env.Spec, env.Backend)
		}
	})
	if err != nil {
		return err
	}
	if !cached {
		return fmt.Errorf("replayed %s missed the cache", q.Class)
	}
	c.do("serve.write", func() {
		w := httptest.NewRecorder()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Solve-Cost-Cache", "hit")
		w.Write(body)
		w.Write([]byte("\n"))
	})
	return nil
}

// timeHandler runs one request through the server's whole handler on a
// recorder, without the network.
func (rp *replayer) timeHandler(c sctx, q *request) error {
	c.class, c.counter = "hit", q.Counter
	_, end := c.begin("serve.handler")
	w := httptest.NewRecorder()
	rp.handler.ServeHTTP(w, httptest.NewRequest("POST", q.Path, bytes.NewReader(q.Body)))
	end()
	if w.Code != 200 {
		return fmt.Errorf("handler answered %d", w.Code)
	}
	return nil
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
