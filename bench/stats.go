package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the figure is one or two outliers' value.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1, nearest rank) of
// an ascending sample, and false — refusing — when fewer than minBeyond
// samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[max(rank, 1)-1], true
}

// pct is percentile for per-layer figures: a refused percentile reads 0.
func pct(sorted []float64, p float64) float64 {
	v, _ := percentile(sorted, p)
	return v
}

// median is the middle of a small set of repeats (set-ups, reopens),
// where the sample-count rule of percentile does not apply.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
