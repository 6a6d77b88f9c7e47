package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. Empty input
// gives 0.
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

// percentile returns the nearest-rank q-th percentile of xs (0 < q <= 100):
// the smallest sample with at least q% of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	return sorted(xs)[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of the q-th percentile among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9)) // guard q*n/100 rounding up past an integer
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder with at least
// minBeyond of n samples strictly beyond its rank; ok is false when even
// the median has fewer.
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// tail is a reported tail latency: the value at percentile Q of N samples,
// or the maximum (Q = 100) when no ladder percentile has enough samples
// beyond it.
type tail struct {
	Q     float64
	N     int
	Value float64
}

func tailOf(xs []float64) tail {
	q, ok := tailPercentile(len(xs))
	if !ok {
		q = 100
	}
	return tail{Q: q, N: len(xs), Value: percentile(xs, q)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// collect maps each element of xs to one sample.
func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
