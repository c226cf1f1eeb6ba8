package main

import (
	"math"
	"sort"
)

// nearestRank is the nearest-rank percentile p (0 < p <= 100) of xs,
// the same rule the fleet report uses for simulated wall times. xs is
// not modified. NaN for an empty slice.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// quartiles returns the first quartile, median and third quartile of
// xs with the rules of Python's statistics.quantiles(xs, n=4)
// (exclusive method) and statistics.median, so spreads computed here
// match the ones computed from the same values in Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return s[0], med, s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
