package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[nearestRank(p, n)-1]
}

// nearestRank is the 1-based rank of the p-th percentile in a sample of
// n: ⌈p·n/100⌉, clamped to [1, n]. The small subtraction keeps a product
// that is a whole number in exact arithmetic (99.9 % of 10,000) from
// being pushed up a rank by floating-point error.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// median returns the nearest-rank p50 of xs (xs is not modified).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// tailCandidates are the percentiles a timing may be reported at, low
// to high.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupportedPercentile returns the highest candidate percentile
// that still has at least ten samples beyond it in a sample of size n —
// a tail read off fewer than ten points is one outlier, not a
// percentile. Samples too small for any candidate report 0.
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if n > 0 && n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method: position i·(n+1)/4 with linear interpolation), so compare
// judges spread by the same rule the acceptance driver uses. Fewer than
// two values collapse to the single value (or zeros).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
