package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.xs); got != c.want {
				t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if _, err := Variance([]float64{1}); err == nil {
		t.Error("Variance of 1 sample should fail")
	}
	s, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestMeanStdDevDegenerate(t *testing.T) {
	m, s := MeanStdDev([]float64{5})
	if m != 5 || s != 0 {
		t.Errorf("MeanStdDev single sample = %v,%v; want 5,0", m, s)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	// Constant data has CV 0.
	if cv := CoefficientOfVariation([]float64{2, 2, 2}); cv != 0 {
		t.Errorf("CV of constants = %v, want 0", cv)
	}
	// Zero mean is guarded.
	if cv := CoefficientOfVariation([]float64{-1, 1}); cv != 0 {
		t.Errorf("CV at zero mean = %v, want 0", cv)
	}
	cv := CoefficientOfVariation([]float64{9, 10, 11})
	if cv <= 0 || cv > 0.2 {
		t.Errorf("CV = %v out of expected range", cv)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Errorf("Min/Max/Sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	q, err := Quantile(xs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q, 29, 1e-12) { // type-7: 20 + 0.6*(35-20)
		t.Errorf("Quantile(0.4) = %v, want 29", q)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile should fail")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range q should fail")
	}
	med, _ := Median(xs)
	if med != 35 {
		t.Errorf("Median = %v, want 35", med)
	}
}

func TestMomentsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var m Moments
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		m.Add(xs[i])
	}
	wantMean, wantSD := MeanStdDev(xs)
	if !almostEqual(m.Mean(), wantMean, 1e-9) {
		t.Errorf("streaming mean %v != batch %v", m.Mean(), wantMean)
	}
	if !almostEqual(m.StdDev(), wantSD, 1e-9) {
		t.Errorf("streaming sd %v != batch %v", m.StdDev(), wantSD)
	}
	if m.Min() != Min(xs) || m.Max() != Max(xs) {
		t.Error("streaming min/max mismatch")
	}
	if m.N() != 1000 {
		t.Errorf("N = %d", m.N())
	}
}

func TestSkewness(t *testing.T) {
	// Right-skewed data has positive skewness.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	sk, err := Skewness(xs)
	if err != nil {
		t.Fatal(err)
	}
	if sk < 1 || sk > 3 { // exponential skewness is 2
		t.Errorf("exp skewness = %v, want ≈2", sk)
	}
	if _, err := Skewness([]float64{1, 2}); err == nil {
		t.Error("too-short skewness should fail")
	}
	sym, _ := Skewness([]float64{1, 2, 3})
	if !almostEqual(sym, 0, 1e-12) {
		t.Errorf("symmetric skewness = %v", sym)
	}
}
