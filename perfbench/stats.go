package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianSeconds is the median of nanosecond durations, in seconds.
func medianSeconds(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e9
	}
	return median(xs)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
