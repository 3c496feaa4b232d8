package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = PearsonCorrelation(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := PearsonCorrelation([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant series r = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := PearsonCorrelation([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := PearsonCorrelation([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestPearsonNoisyLinear(t *testing.T) {
	// r should be high (≈0.97, like the paper's Figures 2-3) for a
	// linear relationship with modest noise.
	rng := rand.New(rand.NewSource(9))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = 3*xs[i] + rng.NormFloat64()*2
	}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 {
		t.Errorf("r = %v, want > 0.95", r)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(pairsRaw []float64) bool {
		var xs, ys []float64
		for i := 0; i+1 < len(pairsRaw); i += 2 {
			a, b := pairsRaw[i], pairsRaw[i+1]
			if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
				continue
			}
			if math.Abs(a) > 1e8 || math.Abs(b) > 1e8 {
				continue
			}
			xs = append(xs, a)
			ys = append(ys, b)
		}
		if len(xs) < 2 {
			return true
		}
		r, err := PearsonCorrelation(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
