// Command svcbench is the service benchmark of cdrstoch: it drives an
// in-process cdrserved (serve.NewServer with the daemon's default
// configuration) over loopback HTTP with one of three seeded workloads,
// checks every answer, and prints the end-to-end metrics; with -trace 1 it
// also replays the run's requests through the engine's public functions
// under spans and prints the per-layer breakdown. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir receives run records, span dumps and count files, relative to
// the repository root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "svcbench")

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"success_rate", "ratio"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_mb_per_req", "MB"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: cold-solve, sweep or cache-hot")
	seed := flag.Uint64("seed", 1, "seed the request inputs are drawn from")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics instead")
	selfTest := flag.Bool("self-test", false, "run every workload briefly and check the reported metric set")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *selfTest {
		if err := runSelfTest(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "svcbench: self-test:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "svcbench: self-test passed")
		return
	}
	w, err := findWorkload(*wl)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: bad arguments (workload %q: %v)\n", *wl, err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := execute(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute performs one run and writes its record.
func execute(w *workload, seed uint64, seconds float64, trace bool) (result, error) {
	root, err := os.Getwd()
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	id := runIdentity(root, seed)
	idLine, _ := json.Marshal(id)
	fmt.Fprintf(os.Stderr, "svcbench: %s seed %d trace %v: identity %s\n", w.name, seed, trace, idLine)

	r := &run{w: w, seed: seed, seconds: seconds, trace: trace}
	if err := r.setup(); err != nil {
		if r.h != nil {
			r.h.close()
		}
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	r.measure()
	if w.name == "sweep" {
		r.verifySweeps(3)
	}
	var layers map[string]float64
	var breakdown []classBreakdown
	var spans []span
	if trace {
		layers, breakdown, spans = r.traceReplay()
	}
	r.checkCounts(filepath.Join(outDir, fmt.Sprintf("counts-%s-seed%d.json", w.name, seed)), id.TreeHash)
	if w.round != nil {
		r.tallyCold()
	}
	if err := r.h.close(); err != nil {
		r.problem("shutting the server down: %v", err)
	}

	lat := summarize(r.lat, w.classes, w.tailPct)
	e2e := r.endToEnd(lat)
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		for _, d := range perLayer() {
			res.Metrics[d.name] = metric{finiteOr0(layers[d.name]), d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{finiteOr0(e2e[d.name]), d.unit}
		}
	}

	report(os.Stderr, r, lat, e2e, breakdown)
	stamp := time.Now().UTC().Format("20060102T150405.000000")
	rec := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"identity": id, "result": res, "end_to_end": e2e, "latency": lat,
		"setup_runs_s": r.setupS, "elapsed_s": r.elapsed.Seconds(),
		"cpu_user_s": r.cpuUser.Seconds(), "cpu_sys_s": r.cpuSys.Seconds(),
		"cache_hits": r.hits, "cache_lookups": r.lookups, "problems": r.problems,
		"per_layer": layers, "breakdown": breakdown,
	}
	if w.round != nil {
		rec["samples_ms"] = r.lat
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d-%s", w.name, seed, b2i(trace), stamp))
	if err := writeJSON(base+".json", rec); err != nil {
		return res, err
	}
	if trace {
		if err := writeSpans(base+".spans.jsonl", spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func finiteOr0(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// endToEnd computes the -trace 0 metrics of a finished run.
func (r *run) endToEnd(lat latencySummary) map[string]float64 {
	ok := r.attempted - r.failed
	perReq := func(v float64) float64 {
		if ok == 0 {
			return 0
		}
		return v / float64(ok)
	}
	m := map[string]float64{
		"setup_s":          median(r.setupS),
		"throughput_rps":   float64(ok) / r.elapsed.Seconds(),
		"latency_p50_ms":   lat.P50,
		"latency_tail_ms":  lat.Tail,
		"cpu_ms_per_req":   perReq(ms(r.cpuUser + r.cpuSys)),
		"alloc_mb_per_req": perReq(float64(r.allocB) / 1e6),
		"peak_rss_mb":      float64(r.peakRSSB) / 1e6,
	}
	if r.attempted > 0 {
		m["success_rate"] = float64(ok) / float64(r.attempted)
	}
	return m
}

// report prints the human-readable summary to w.
func report(w *os.File, r *run, lat latencySummary, e2e map[string]float64, bd []classBreakdown) {
	fmt.Fprintf(w, "svcbench: %s: %d requests in %.2fs, %d failed; cache hits %d of %d lookups\n",
		r.w.name, r.attempted, r.elapsed.Seconds(), r.failed, r.hits, r.lookups)
	for _, p := range r.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	var cls []string
	for c := range lat.Classes {
		cls = append(cls, c)
	}
	sort.Strings(cls)
	for _, c := range cls {
		fmt.Fprintf(w, "  %-14s p50 %10.3f ms  (%d samples)\n", c, lat.Classes[c], lat.Counts[c])
	}
	fmt.Fprintf(w, "  tail reported at p%.4g of %d class-scaled samples\n", 100*lat.TailPct, lat.N)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %12.4f %s\n", d.name, e2e[d.name], d.unit)
	}
	for _, b := range bd {
		fmt.Fprintf(w, "  breakdown %s: end-to-end p50 %.3f ms over %d replayed requests\n", b.Class, b.E2EMS, b.Requests)
		for _, l := range b.Layers {
			fmt.Fprintf(w, "    %-26s %12.3f ms  %6.2f%%\n", l.Name, l.MS, 100*l.MS/b.E2EMS)
		}
		fmt.Fprintf(w, "    %-26s %12.3f ms  %6.2f%%\n", "unattributed", b.UnattributedMS, 100*b.UnattributedMS/b.E2EMS)
	}
}

// runSelfTest runs every workload briefly in both modes and checks the
// metric sets against BENCHMARK.json, error-free runs, and the cache hit
// ratio each workload is built to have.
func runSelfTest(seed uint64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var fails []string
	for _, wd := range spec.Workloads {
		w, err := findWorkload(wd.Name)
		if err != nil {
			return err
		}
		for _, tr := range []bool{false, true} {
			res, err := execute(w, seed, 0.5, tr)
			if err != nil {
				return fmt.Errorf("%s trace %v: %w", w.name, tr, err)
			}
			want := spec.EndToEnd
			if tr {
				want = spec.PerLayer
			}
			var names []string
			for _, m := range want {
				names = append(names, m.Name)
			}
			tag := fmt.Sprintf("%s trace %v", w.name, tr)
			if len(res.Metrics) != len(names) {
				fails = append(fails, fmt.Sprintf("%s: %d metrics, BENCHMARK.json names %d", tag, len(res.Metrics), len(names)))
			}
			for _, n := range names {
				if _, ok := res.Metrics[n]; !ok {
					fails = append(fails, fmt.Sprintf("%s: metric %s missing", tag, n))
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				fails = append(fails, fmt.Sprintf("%s: correct %v, %d of %d failed", tag, res.Correct, res.Failed, res.Attempted))
			}
			if !tr && res.Metrics["success_rate"].Value != 1 {
				fails = append(fails, fmt.Sprintf("%s: success_rate %g", tag, res.Metrics["success_rate"].Value))
			}
			if tr {
				wantHit := 0.0
				if w.round == nil {
					wantHit = 1
				}
				if got := res.Metrics["cache.hit_ratio"].Value; got != wantHit {
					fails = append(fails, fmt.Sprintf("%s: cache.hit_ratio %g, want %g", tag, got, wantHit))
				}
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("%s", strings.Join(fails, "; "))
	}
	return nil
}
