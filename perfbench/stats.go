package main

import (
	"fmt"
	"math"
	"sort"
)

// percentiles are the levels the benchmark reports, highest first.
var percentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailOK reports whether n samples leave at least ten beyond the p-th
// percentile — the rule for quoting a percentile at all.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// highestPercentile returns the highest reported percentile that n samples
// support with at least ten samples beyond it, or 0 when none does.
func highestPercentile(n int) float64 {
	for _, p := range percentiles {
		if tailOK(n, p) {
			return p
		}
	}
	return 0
}

// quantile returns the p-th percentile (0..100) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// windowedTail splits xs, in arrival order, into up to maxWindows equal
// consecutive windows that each leave ten samples beyond the p-th
// percentile, and returns the median of the windows' percentiles with the
// per-window values. One burst of host stalls then moves one window, not
// the reported tail.
func windowedTail(xs []float64, p float64, maxWindows int) (float64, []float64, error) {
	need := int(math.Ceil(1000/(100-p) - 1e-9))
	k := len(xs) / need
	if k > maxWindows {
		k = maxWindows
	}
	if k < 1 {
		_, err := tail(xs, p)
		return 0, nil, err
	}
	size := len(xs) / k
	per := make([]float64, k)
	for w := range per {
		v, err := tail(xs[w*size:(w+1)*size], p)
		if err != nil {
			return 0, nil, err
		}
		per[w] = v
	}
	return median(per), per, nil
}

// printP99 prints the p99 of lats (ms) by windowedTail, with the sample
// count and the per-window values, and returns it. The p99 is not among
// the bounded end-to-end metrics: on a shared host its run-to-run spread
// exceeds any bound the benchmark may set (see README.md); traced runs
// report it as bench.latency_p99_ms.
func printP99(what string, lats []float64) (float64, error) {
	p99, per, err := windowedTail(lats, 99, 9)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	fmt.Printf("%s p99 %.4g ms over %d samples (median of windows %.3g)\n", what, p99, len(lats), per)
	return p99, nil
}

// tail returns the p-th percentile of xs, failing unless the sample count
// leaves at least ten samples beyond it.
func tail(xs []float64, p float64) (float64, error) {
	if !tailOK(len(xs), p) {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d (highest supported: p%g)",
			p, int(math.Ceil(1000/(100-p)-1e-9)), len(xs), highestPercentile(len(xs)))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p), nil
}
