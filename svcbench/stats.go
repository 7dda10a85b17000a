package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule of R and NumPy). xs is not
// modified; an empty slice yields NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the percentile a tail is reported at: want when at
// least ten of n samples lie beyond it, otherwise the highest percentile
// that still has ten beyond it (below the median for short runs), and the
// minimum when no percentile has.
func tailPercentile(want float64, n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(want, 1-10/float64(n))
}

// latencySummary condenses per-class latencies into the workload's
// median and tail. The median is the geometric mean of the class medians,
// so each class weighs the same however fast it is. For the tail each
// sample is scaled by its class median before pooling, so it reads as
// "how much slower than usual" whatever the class mix, and is put back on
// the millisecond scale by the same geometric mean. For one class both
// are the plain median and tail.
type latencySummary struct {
	P50     float64            `json:"p50_ms"`
	Tail    float64            `json:"tail_ms"`
	TailPct float64            `json:"tail_percentile"`
	N       int                `json:"samples"`
	Classes map[string]float64 `json:"class_p50_ms"`
	Counts  map[string]int     `json:"class_samples"`
}

func summarize(byClass map[string][]float64, classes []string, want float64) latencySummary {
	s := latencySummary{Classes: map[string]float64{}, Counts: map[string]int{}}
	logSum, k := 0.0, 0
	var scaled []float64
	for _, c := range classes {
		xs := byClass[c]
		if len(xs) == 0 {
			continue
		}
		m := median(xs)
		s.Classes[c], s.Counts[c] = m, len(xs)
		logSum += math.Log(m)
		k++
		for _, x := range xs {
			scaled = append(scaled, x/m)
		}
	}
	if k == 0 {
		return s
	}
	g := math.Exp(logSum / float64(k))
	s.N = len(scaled)
	s.P50 = g
	s.TailPct = tailPercentile(want, len(scaled))
	s.Tail = g * quantile(scaled, s.TailPct)
	return s
}
