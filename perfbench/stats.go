package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer would be one or two outliers.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest whole percentile p whose nearest-rank
// sample still has at least tailBeyond samples above it in a set of n, and
// ok=false when n is too small for any percentile at or above the median
// to qualify.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		if n-nearestRank(n, p) >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n, p int) int {
	r := int(math.Ceil(float64(p) / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// tail returns the tail latency of xs and the percentile it reports: the
// highest percentile with at least tailBeyond samples beyond it, or the
// maximum (reported as p100) when there are too few samples for one.
func tail(xs []float64) (float64, int) {
	if p, ok := tailPercentile(len(xs)); ok {
		return percentile(xs, p), p
	}
	if len(xs) == 0 {
		return 0, 100
	}
	s := sorted(xs)
	return s[len(s)-1], 100
}
