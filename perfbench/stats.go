package main

import (
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one outlier away from changing.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the pct-th percentile
// among n samples: the smallest r with r/n ≥ pct/100.
func rank(n, pct int) int {
	r := (n*pct + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie above the pct-th percentile.
func beyond(n, pct int) int { return n - rank(n, pct) }

// reportable reports whether the pct-th percentile of n samples has at
// least minBeyond samples beyond it.
func reportable(n, pct int) bool { return beyond(n, pct) >= minBeyond }

// minSamples is the smallest sample count at which the pct-th
// percentile is reportable.
func minSamples(pct int) int {
	n := 1
	for !reportable(n, pct) {
		n++
	}
	return n
}

// percentile returns the nearest-rank pct-th percentile of xs (which
// it sorts in place); 0 for an empty slice.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), pct)-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unchanged; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
