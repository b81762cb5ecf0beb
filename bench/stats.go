package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the mean of the two middle values of
// an even-length sample.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(vals, n=4) with its default
// "exclusive" method, so the spreads this benchmark reports match the ones
// computed from its output.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	med := median(vals)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// percentile is the nearest-rank percentile of a latency sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio is num/den, 0 when den is 0 (a layer the workload never entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
