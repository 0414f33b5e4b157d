package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the figure is a handful of outliers, not a
// percentile.
const tailMinBeyond = 10

// median returns the middle of xs (mean of the two middle values for an
// even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule, and whether at least tailMinBeyond
// samples lie strictly beyond that rank. Callers must not report a tail
// percentile for which ok is false.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= tailMinBeyond
}

// nearestRank is the 1-based rank ceil(p/100 * n), computed so that
// binary rounding of p/100 cannot push an exact product up by one.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// highestTail returns the highest of p99.9, p99, p90 that has at least
// tailMinBeyond samples beyond it in a sample of n, or 0 if none does.
func highestTail(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if n-nearestRank(p, n) >= tailMinBeyond {
			return p
		}
	}
	return 0
}
