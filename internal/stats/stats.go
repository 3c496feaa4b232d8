// Package stats provides the statistical machinery CPI² is built on:
// descriptive statistics, streaming moments, Pearson correlation,
// histograms, empirical CDFs and quantiles, parametric distributions
// (normal, log-normal, gamma, generalized extreme value), distribution
// fitting, and goodness-of-fit tests.
//
// Everything is deterministic given a seed and uses only the standard
// library. The package is the numeric substrate for CPI-spec building
// (mean/stddev per job×platform), outlier thresholds (µ+2σ), the
// antagonist correlation analysis, and the paper's Figure 7 GEV fit.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an operation needs more samples
// than were provided (for example, a variance of fewer than two points).
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
// It needs at least two samples.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MeanStdDev returns both the mean and the sample standard deviation.
// With fewer than two samples the standard deviation is reported as 0.
func MeanStdDev(xs []float64) (mean, stddev float64) {
	mean = Mean(xs)
	if s, err := StdDev(xs); err == nil {
		stddev = s
	}
	return mean, stddev
}

// CoefficientOfVariation returns stddev/mean, the measure the paper uses
// for the diurnal CPI drift in Figure 5 (about 4% for web search).
// It returns 0 if the mean is zero or there are fewer than two samples.
func CoefficientOfVariation(xs []float64) float64 {
	m, s := MeanStdDev(xs)
	if m == 0 {
		return 0
	}
	return s / m
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the spreadsheet and
// NumPy default). xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Moments holds streaming first and second moments computed with
// Welford's algorithm, so callers can fold in samples one at a time
// without retaining them. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the moments.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the number of observations folded in.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased running sample variance (0 if n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased running sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// MomentsState is the exported form of Moments, for serialization
// (aggregator checkpoints). Go's encoding/json round-trips float64
// exactly, so State→JSON→MomentsFromState reproduces the accumulator
// bit-for-bit.
type MomentsState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State exports the accumulator's internal state.
func (m *Moments) State() MomentsState {
	return MomentsState{N: m.n, Mean: m.mean, M2: m.m2, Min: m.min, Max: m.max}
}

// MomentsFromState reconstructs an accumulator from an exported state.
// Invalid states (negative count, NaN/Inf fields) yield the zero
// Moments rather than a poisoned accumulator.
func MomentsFromState(s MomentsState) Moments {
	if s.N <= 0 {
		return Moments{}
	}
	for _, f := range []float64{s.Mean, s.M2, s.Min, s.Max} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Moments{}
		}
	}
	if s.M2 < 0 {
		return Moments{}
	}
	return Moments{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}

// Min returns the smallest observation seen (0 if none).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return 0
	}
	return m.min
}

// Max returns the largest observation seen (0 if none).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return 0
	}
	return m.max
}

// Skewness returns the sample skewness of xs (Fisher-Pearson, biased),
// used to verify that simulated CPI distributions keep the paper's
// right-skewed shape (Figure 7).
func Skewness(xs []float64) (float64, error) {
	if len(xs) < 3 {
		return 0, ErrInsufficientData
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0, nil
	}
	return m3 / math.Pow(m2, 1.5), nil
}
