package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank percentile p (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// topPercentile is the reporting rule for latency tails: the highest of
// p50/p90/p99/p99.9 that still has at least ten samples beyond it.  The
// median is the floor, so a short window reports p50 and nothing higher.
func topPercentile(n int) float64 {
	top := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			top = p
		}
	}
	return top
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance driver
// uses to judge run-to-run spread.  It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio is a/b with 0 for an unmeasured base, so a skipped rung prints
// 0 instead of Inf/NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
