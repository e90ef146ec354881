package main

import (
	"math"
	"sort"
)

// summary is the five-number description every metric is reported with.
type summary struct {
	N                        int
	Median, Q1, Q3, Min, Max float64
}

// spread is the interquartile range as a share of the median — the
// steadiness figure bounds are calibrated against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance rule is stated in.
// With fewer than two values all three cut points are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return summary{Median: nan, Q1: nan, Q3: nan, Min: nan, Max: nan}
	}
	s := sorted(xs)
	q1, _, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p percent of the samples at or below it. With n < 100/(100-p)
// samples it is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
