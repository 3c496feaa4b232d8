package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0, 0.5, 1.5, 9.99, -1, 10, 100})
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", h.Underflow, h.Overflow)
	}
	if h.Counts[0] != 2 { // 0 and 0.5
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[9] != 1 {
		t.Errorf("bins = %v", h.Counts)
	}
	if h.BinWidth() != 1 {
		t.Errorf("BinWidth = %v", h.BinWidth())
	}
	if h.BinCenter(0) != 0.5 {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
	if got := h.Fraction(0); !almostEqual(got, 2.0/7.0, 1e-12) {
		t.Errorf("Fraction(0) = %v", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramConservesCountProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-5, 5, 17)
		valid := 0
		for _, x := range xs {
			if x != x { // NaN lands in no bin; skip
				continue
			}
			h.Add(x)
			valid++
		}
		var binned int64
		for _, c := range h.Counts {
			binned += c
		}
		return binned+h.Underflow+h.Overflow == int64(valid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(1, 3, 20)
	rng := rand.New(rand.NewSource(11))
	g := GEV{Mu: 1.73, Sigma: 0.133, Xi: -0.0534}
	for i := 0; i < 10000; i++ {
		h.Add(g.Rand(rng))
	}
	out := h.Render(40, g)
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") {
		t.Errorf("render missing bars or fit markers:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 20 {
		t.Errorf("render lines = %d, want 20", len(lines))
	}
	// Empty histogram renders without dividing by zero.
	empty := NewHistogram(0, 1, 3)
	if s := empty.Render(5, nil); s == "" {
		t.Error("empty render produced nothing")
	}
}

func TestRNGDeterminism(t *testing.T) {
	r := NewRNG(1234)
	a := r.Stream("machine/1")
	b := r.Stream("machine/1")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-name streams diverged")
		}
	}
	c := r.Stream("machine/2")
	same := true
	d := r.Stream("machine/1")
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different-name streams identical")
	}
	// Sub-factories are deterministic and namespaced.
	s1 := r.Sub("cluster").Stream("x")
	s2 := NewRNG(1234).Sub("cluster").Stream("x")
	for i := 0; i < 10; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatal("Sub streams not reproducible")
		}
	}
	if r.Seed() != 1234 {
		t.Error("Seed accessor wrong")
	}
}
