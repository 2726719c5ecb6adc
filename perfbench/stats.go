package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail value.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that still has at
// least tailBeyond samples above it, with that percentile and the number of
// samples beyond it. When that percentile would fall below the median (fewer
// than 2*tailBeyond samples) the rule gives no tail, and the maximum is
// reported instead as percentile 100 with nothing beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n < 2*tailBeyond {
		return s[n-1], 100, 0
	}
	idx := n - 1 - tailBeyond
	return s[idx], 100 * float64(idx+1) / float64(n), tailBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, returning 0 when the base is 0 (a layer the workload does
// not reach).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) {
		return 0
	}
	return num / den
}
