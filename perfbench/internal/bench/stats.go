package bench

import (
	"math"
	"sort"
	"strconv"
)

// minTail is how many samples must lie strictly beyond a tail percentile
// before it is reported: a "p99" over five ops is just the maximum.
const minTail = 10

// Summary is one timing population: the sample count beside the median,
// and only the tail percentiles the count can honestly support.
type Summary struct {
	N      int                `json:"n"`
	Median float64            `json:"median"`
	Tails  map[string]float64 `json:"tails,omitempty"`
}

// Median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
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

// Percentile returns the nearest-rank p-th percentile of xs and whether it
// is honest: at least minTail samples lie beyond its rank. A dishonest
// percentile is still returned for callers that want to show it, but
// Summarize never reports one.
func Percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minTail
}

// Summarize reports the median of xs and each of the requested tail
// percentiles that has at least minTail samples beyond it.
func Summarize(xs []float64, tails ...float64) Summary {
	out := Summary{N: len(xs), Median: Median(xs)}
	for _, p := range tails {
		if v, ok := Percentile(xs, p); ok {
			if out.Tails == nil {
				out.Tails = map[string]float64{}
			}
			out.Tails[percentileName(p)] = v
		}
	}
	return out
}

func percentileName(p float64) string {
	return "p" + strconv.FormatFloat(p, 'f', -1, 64)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
