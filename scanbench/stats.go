package main

import (
	"math"
	"slices"
)

// tailPermille lists the percentiles a latency tail may be reported at,
// highest first, in tenths of a percent (999 is p99.9). Integer ranks
// keep the nearest-rank rule exact: 0.99*1000 is not 990 in floating
// point.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// rank is the 1-based nearest-rank index of the q-permille percentile
// among n samples: the smallest rank with at least q/1000 of the
// samples at or below it.
func rank(n, q int) int {
	r := (q*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// pct returns the q-permille percentile of sorted (ascending), or NaN
// when there are no samples.
func pct(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailStat is the highest percentile a sample set supports.
type tailStat struct {
	Permille int     // 990 means p99
	Value    float64 // the percentile's value
	N        int     // sample count
	OK       bool    // false when not even the median has ten samples beyond it
}

// tail returns the highest listed percentile of sorted that has at
// least ten samples beyond it, with the sample count. With too few
// samples it reports the median and OK false.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	for _, q := range tailPermille {
		if n-rank(n, q) >= 10 {
			return tailStat{Permille: q, Value: pct(sorted, q), N: n, OK: true}
		}
	}
	return tailStat{Permille: 500, Value: pct(sorted, 500), N: n}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a counter that saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
