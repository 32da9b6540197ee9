package main

import (
	"math"
	"slices"
)

// tailLadder is the percentile ladder the tail helper climbs.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (0 if empty).
func quantile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supports reports whether n samples put at least minBeyond samples
// beyond the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tail is the highest percentile on tailLadder that has at least
// minBeyond samples beyond it, with its value and the sample count. ok is
// false when not even the median qualifies.
type tail struct {
	Q     float64 `json:"q"`
	Value uint32  `json:"value_ns"`
	N     int     `json:"samples"`
}

func highestTail(sorted []uint32) (tail, bool) {
	best, ok := tail{N: len(sorted)}, false
	for _, q := range tailLadder {
		if !supports(len(sorted), q) {
			break
		}
		best.Q, best.Value, ok = q, quantile(sorted, q), true
	}
	return best, ok
}

// interquartileMean is the mean of the middle half of sorted (0 if
// empty). Unlike the median it moves smoothly when a latency distribution
// has two modes and their mix shifts, and unlike the mean it ignores the
// tail.
func interquartileMean(sorted []uint32) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += float64(x)
	}
	return sum / float64(len(mid))
}

// median returns the median of xs (0 if empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errorRate is failed over attempted operations (0 when nothing ran).
func errorRate(attempted, failed uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
