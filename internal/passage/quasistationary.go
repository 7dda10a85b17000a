package passage

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

// Quasi-stationary analysis: conditioned on never having entered the
// target (slip) set, the loop state converges to the quasi-stationary
// distribution ν — the left Perron eigenvector of the substochastic
// matrix Q (the TPM restricted to non-target states):
//
//	ν·Q = λ·ν,  λ < 1,
//
// and the survival probability decays geometrically, P(T > k) ≈ C·λᵏ.
// 1−λ is the asymptotic slip hazard per bit, the sharp version of the
// stationary-flux estimate; ν is the ensemble a long-surviving receiver
// actually operates in (e.g. for the BER of links that are reset on
// slip).

// QuasiStationaryResult reports the quasi-stationary solve.
type QuasiStationaryResult struct {
	// Nu is the quasi-stationary distribution over ALL states (zero on
	// the target set), normalized to unit mass.
	Nu []float64
	// Lambda is the Perron eigenvalue of Q: the per-step survival
	// probability of the conditioned process.
	Lambda float64
	// HazardPerStep is the asymptotic slip rate 1 − Lambda, evaluated
	// subtraction-free as escaped/(escaped + Lambda) from the mass the last
	// sweep sent into the target set, so hazards far below the float64
	// resolution of Lambda keep their digits.
	HazardPerStep float64
	// Iterations is the number of power steps performed.
	Iterations int
	// Converged reports whether the eigenvector residual met tol.
	Converged bool
}

// QSOptions configures the quasi-stationary power iteration.
type QSOptions struct {
	// Tol is the 1-norm eigenvector residual threshold. Default 1e-12.
	Tol float64
	// MaxIter bounds the power steps. Default 100000.
	MaxIter int
	// Workers is the parallel team width for the x·Q products
	// (0 = GOMAXPROCS, 1 = serial; see spmat.Pool). Ignored when Pool
	// is set.
	Workers int
	// Pool optionally supplies an externally owned worker team; it is
	// never closed by the solver.
	Pool *spmat.Pool
	// Ctx, when non-nil, is checked at every sweep boundary: a canceled
	// or expired context stops the solve with a partial-progress error
	// wrapping ctx.Err(). It also carries the cost meter, when the caller
	// accounts the solve. Nil never cancels.
	Ctx context.Context
}

// QuasiStationary computes (ν, λ) by power iteration on the substochastic
// restriction of p to the complement of target, renormalizing each sweep
// (the normalization factor converges to λ).
func QuasiStationary(p *spmat.CSR, target []bool, tol float64, maxIter int) (QuasiStationaryResult, error) {
	return QuasiStationaryOpt(p, target, QSOptions{Tol: tol, MaxIter: maxIter})
}

// QuasiStationaryOpt is QuasiStationary with the full option set: it runs
// the per-sweep x·Q product on a parallel worker team and allocates only
// its two iterate buffers for the whole solve.
func QuasiStationaryOpt(p *spmat.CSR, target []bool, opt QSOptions) (QuasiStationaryResult, error) {
	n, m := p.Dims()
	if n != m {
		return QuasiStationaryResult{}, errors.New("passage: TPM must be square")
	}
	if len(target) != n {
		return QuasiStationaryResult{}, errors.New("passage: target length mismatch")
	}
	tol, maxIter := opt.Tol, opt.MaxIter
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	pool := opt.Pool
	if pool == nil {
		pool = spmat.NewPool(opt.Workers)
	}
	inside := 0
	for _, b := range target {
		if b {
			inside++
		}
	}
	if inside == 0 {
		return QuasiStationaryResult{}, errors.New("passage: empty target set")
	}
	if inside == n {
		return QuasiStationaryResult{}, errors.New("passage: no surviving states")
	}

	x := make([]float64, n)
	for i := range x {
		if !target[i] {
			x[i] = 1
		}
	}
	norm := 0.0
	for _, v := range x {
		norm += v
	}
	for i := range x {
		x[i] /= norm
	}
	y := make([]float64, n)
	res := QuasiStationaryResult{}
	escaped := 0.0 // mass the last sweep sent into the target set
	// Cost accounting: one meter lookup per solve; the deferred
	// attribution also covers the cancellation return.
	meter := cost.FromContext(opt.Ctx)
	if meter != nil {
		stats0 := pool.Stats()
		meter.SampleGoroutines()
		defer func() {
			meter.AddSweeps(int64(res.Iterations))
			meter.AddPoolDelta(stats0, pool.Stats())
		}()
	}
	for it := 1; it <= maxIter; it++ {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				res.Nu = x
				res.HazardPerStep = hazard(escaped, res.Lambda)
				return res, fmt.Errorf("passage: quasi-stationary solve stopped after %d sweeps: %w",
					res.Iterations, err)
			}
		}
		// y = x·Q: propagate through P, then zero the target states,
		// tallying the mass they received.
		pool.VecMul(p, y, x)
		lambda, esc := 0.0, 0.0
		for i := range y {
			if target[i] {
				esc += y[i]
				y[i] = 0
			} else {
				lambda += y[i]
			}
		}
		if lambda <= 0 {
			return QuasiStationaryResult{}, errors.New("passage: survival mass vanished (target absorbs immediately)")
		}
		resid := 0.0
		inv := 1 / lambda
		for i := range y {
			y[i] *= inv
			resid += math.Abs(y[i] - x[i])
		}
		x, y = y, x
		res.Iterations = it
		res.Lambda = lambda
		escaped = esc
		if resid <= tol {
			res.Converged = true
			meter.AddResidual(resid)
			break
		}
		if it == maxIter {
			meter.AddResidual(resid)
		}
	}
	res.Nu = x
	res.HazardPerStep = hazard(escaped, res.Lambda)
	return res, nil
}

// hazard is the per-step escape probability of the normalized survivor
// iterate: of the mass x·P carries, escaped entered the target and lambda
// stayed out. Their ratio equals 1 − λ for a stochastic P but never
// subtracts, so it keeps full relative precision however small. Before
// the first sweep (both zero) it reports 1 − λ = 1.
func hazard(escaped, lambda float64) float64 {
	if escaped+lambda == 0 {
		return 1
	}
	return escaped / (escaped + lambda)
}
