package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"cdrstoch/internal/core"
	"cdrstoch/internal/serve"
)

// Accuracy bounds the checks hold the service to.
const (
	residualTol = 1e-12 // the solver's default L1 tolerance
	kronParity  = 1e-10 // kron vs explicit, as TestAnalyzeKronBackendParity
	slipParity  = 1e-12 // /v1/slip vs /v1/analyze slip fields
	sweepRelTol = 1e-9  // batch vs pointwise BER, as BenchmarkSweepFig5
)

// statesFor returns the product state count of a Fig. 5 model, computed
// from the model shell (no TPM assembly).
func statesFor(counter int) (int, error) {
	m, err := core.BuildShell(specAt(counter, fig5Sigma))
	if err != nil {
		return 0, fmt.Errorf("counter-%d shell: %w", counter, err)
	}
	return m.NumStates(), nil
}

func unitInterval(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s = %g outside [0,1]", name, v)
	}
	return nil
}

func checkSlipFields(s serve.SlipBody) error {
	if err := unitInterval("slip flux", s.Flux); err != nil {
		return err
	}
	if d := math.Abs(s.OutsideMass + s.TargetMass - 1); d > 1e-9 {
		return fmt.Errorf("slip masses sum to 1%+.3g", d)
	}
	return nil
}

// checkAnalyze validates an analyze (or sweep point) body.
func checkAnalyze(raw []byte, states int) (serve.AnalyzeBody, error) {
	var b serve.AnalyzeBody
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("decoding analyze body: %w", err)
	}
	switch {
	case !b.Converged:
		return b, fmt.Errorf("converged = false")
	case !(b.Residual >= 0 && b.Residual <= residualTol):
		return b, fmt.Errorf("residual %g above %g", b.Residual, residualTol)
	case b.States != states:
		return b, fmt.Errorf("states %d, want %d", b.States, states)
	case b.Cycles <= 0:
		return b, fmt.Errorf("cycles %d", b.Cycles)
	}
	if err := unitInterval("ber", b.BER); err != nil {
		return b, err
	}
	return b, checkSlipFields(b.Slip)
}

// checkSlip validates a /v1/slip body.
func checkSlip(raw []byte, states int) (serve.SlipResponse, error) {
	var b serve.SlipResponse
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("decoding slip body: %w", err)
	}
	if b.States != states {
		return b, fmt.Errorf("states %d, want %d", b.States, states)
	}
	if b.HazardPerBit == nil || b.ConditionedBER == nil {
		return b, fmt.Errorf("quasi-stationary fields missing")
	}
	// The hazard is 1 - lambda of a power iteration run to 1e-12, so it is
	// only known to that absolute accuracy: an essentially lock-tight loop
	// can report a hazard a few ulps below zero.
	if h := *b.HazardPerBit; !(h >= -residualTol && h <= 1) {
		return b, fmt.Errorf("hazard_per_bit = %g outside [-%g, 1]", h, residualTol)
	}
	if err := unitInterval("conditioned_ber", *b.ConditionedBER); err != nil {
		return b, err
	}
	return b, checkSlipFields(b.Slip)
}

// checkSweep validates a sweep body point by point. cached is the
// disposition every point must have.
func checkSweep(raw []byte, r *request, states int, cached bool) (serve.SweepBody, []serve.AnalyzeBody, error) {
	var b serve.SweepBody
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, nil, fmt.Errorf("decoding sweep body: %w", err)
	}
	if b.Param != "stdnw" || b.Batch != r.Batch || len(b.Points) != len(r.Values) {
		return b, nil, fmt.Errorf("sweep shape: param %q batch %v, %d points, want %d", b.Param, b.Batch, len(b.Points), len(r.Values))
	}
	pts := make([]serve.AnalyzeBody, len(b.Points))
	for i, p := range b.Points {
		if p.Error != "" {
			return b, nil, fmt.Errorf("point %d: %s", i, p.Error)
		}
		if p.Value != r.Values[i] || p.Cached != cached {
			return b, nil, fmt.Errorf("point %d: value %g cached %v, want %g cached %v", i, p.Value, p.Cached, r.Values[i], cached)
		}
		a, err := checkAnalyze(p.Result, states)
		if err != nil {
			return b, nil, fmt.Errorf("point %d: %w", i, err)
		}
		if r.Batch && !cached && p.Cycles != a.Cycles {
			return b, nil, fmt.Errorf("point %d: cycles field %d, body %d", i, p.Cycles, a.Cycles)
		}
		pts[i] = a
	}
	return b, pts, nil
}

// headerInt parses a numeric X-Solve-Cost-* header; -1 when absent.
func headerInt(v string) int64 {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func close12(a, b float64) bool {
	return math.Abs(a-b) <= slipParity*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func optClose(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return close12(*a, *b)
}

// slipAgrees compares the slip section of /v1/slip with /v1/analyze for
// one spec.
func slipAgrees(a, b serve.SlipBody) bool {
	return close12(a.Flux, b.Flux) && close12(a.OutsideMass, b.OutsideMass) &&
		close12(a.TargetMass, b.TargetMass) && optClose(a.MeanTimeBetween, b.MeanTimeBetween)
}

// relClose is the batch-vs-pointwise BER comparison of BenchmarkSweepFig5.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= sweepRelTol*(math.Abs(b)+1e-300)
}
