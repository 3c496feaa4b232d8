package stats

import "math"

// PearsonCorrelation returns the Pearson product-moment correlation
// coefficient between xs and ys. The slices must be the same length and
// contain at least two points; otherwise it returns 0 and
// ErrInsufficientData. A result of 0 is also returned (with nil error)
// when either series has zero variance.
//
// The paper reports Pearson correlations of 0.97 between IPS and TPS
// (Figure 2) and between CPI and request latency (Figure 3), and 0.87
// between relative L3 misses/instruction and relative CPI (Figure 15c).
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
