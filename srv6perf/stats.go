package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, computed exactly like Python's statistics.quantiles(xs, n=4)
// with its default "exclusive" method. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// iqrSpread is the distance between the first and third quartile as
// a share of the median: the run-to-run spread a bound is judged by.
func iqrSpread(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// minTail is the number of samples that must lie beyond a percentile
// for it to be reported.
const minTail = 10

// percentile returns the p-th quantile (0 < p < 1) of xs by linear
// interpolation between closest ranks. ok is false when fewer than
// minTail samples lie above the interpolation point, where the figure
// would rest on a handful of outliers.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if n-1-lo < minTail {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	hi := lo + 1
	if hi >= n {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac, true
}
