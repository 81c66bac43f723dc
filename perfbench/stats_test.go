package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// computation the benchmark's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
		mad            float64
		tailPct, tail  float64
		tailBeyond     int
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, median: 5.5, q3: 8.25, mad: 2.5},
		{xs: []float64{2, 1}, q1: 0.75, median: 1.5, q3: 2.25, mad: 0.5},
		{xs: []float64{5, 1, 4, 2, 3}, q1: 1.5, median: 3, q3: 4.5, mad: 1},
		{xs: []float64{3.5}, q1: 3.5, median: 3.5, q3: 3.5, mad: 0},
		{xs: seq(20, 10), q1: 52.5, median: 105, q3: 157.5, mad: 50},
		// 40 samples: p75 is the highest percentile with 10 beyond it.
		{xs: seq(40, 1), q1: 10.25, median: 20.5, q3: 30.75, mad: 10, tailPct: 75, tail: 30.75, tailBeyond: 10},
		// 1000 samples: p99 has exactly 10 beyond it.
		{xs: seq(1000, 1), q1: 250.25, median: 500.5, q3: 750.75, mad: 250, tailPct: 99, tail: 990.99, tailBeyond: 10},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) || !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) || !near(s.MAD, c.mad) {
			t.Errorf("summarize(%v...) = n %d q1 %v median %v q3 %v mad %v, want q1 %v median %v q3 %v mad %v",
				c.xs[0], s.N, s.Q1, s.Median, s.Q3, s.MAD, c.q1, c.median, c.q3, c.mad)
		}
		if s.TailPct != c.tailPct || !near(s.Tail, c.tail) || s.TailBeyond != c.tailBeyond {
			t.Errorf("summarize(%d samples) tail = p%v %v (%d beyond), want p%v %v (%d beyond)",
				len(c.xs), s.TailPct, s.Tail, s.TailBeyond, c.tailPct, c.tail, c.tailBeyond)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}

func TestNearestRank(t *testing.T) {
	xs := seq(100, 1)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// seq returns step, 2*step, ..., n*step.
func seq(n int, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i+1) * step
	}
	return xs
}
