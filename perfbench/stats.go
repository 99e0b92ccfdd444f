package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is reported at. The tail of a
// sample is the highest rung that leaves at least minBeyond samples above
// it; rungs past p99 are left out because on a small shared machine they
// measure the scheduler more than the program.
var tailLadder = []float64{50, 75, 90, 99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail.
const minBeyond = 10

// rank is the nearest-rank index of percentile q in a sorted sample of n:
// the smallest index i with (i+1)/n >= q/100.
func rank(q float64, n int) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its rank. Below 2×minBeyond
// samples no rung qualifies and the median is returned.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if n-(rank(q, n)+1) >= minBeyond {
			best = q
		}
	}
	return best
}

// sample is a set of durations in one unit of interest.
type sample []time.Duration

// percentile returns the nearest-rank percentile q of s in milliseconds,
// sorting s in place. An empty sample reads 0.
func (s sample) percentile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(s[rank(q, len(s))])
}

// tail returns the sample's tail percentile and its value in milliseconds.
func (s sample) tail() (float64, float64) {
	q := tailPercentile(len(s))
	return q, s.percentile(q)
}

// mean returns the arithmetic mean in milliseconds.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return ms(sum) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctName renders a percentile for a metric name: 50 → "p50", 99.9 → "p99.9".
func pctName(q float64) string { return "p" + fmt.Sprint(q) }

// medianFloat returns the median of xs (mean of the middle pair when even),
// sorting xs in place.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
