package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests: instead of spot-checking hand-picked inputs, these
// generate many random inputs from seeded streams and assert the
// mathematical invariants the CPI² pipeline depends on. Seeded, so a
// failure is reproducible.

// TestCorrelationBounded: the correlation coefficient lies in
// [-1, 1] for arbitrary finite inputs, including heavy ties, tiny
// values, and wildly different scales.
func TestCorrelationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, kind int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch kind {
			case 0: // standard normal
				xs[i] = rng.NormFloat64()
			case 1: // heavy ties
				xs[i] = float64(rng.Intn(3))
			case 2: // huge scale
				xs[i] = rng.NormFloat64() * 1e12
			case 3: // tiny scale with offset
				xs[i] = 42 + rng.NormFloat64()*1e-12
			default: // mixture
				xs[i] = math.Exp(rng.NormFloat64() * 5)
			}
		}
		return xs
	}
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(40)
		xs := gen(n, trial%5)
		ys := gen(n, (trial/5)%5)
		r, err := PearsonCorrelation(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(r) || r < -1.0000000001 || r > 1.0000000001 {
			t.Fatalf("trial %d: correlation %v out of [-1,1]\nxs=%v\nys=%v", trial, r, xs, ys)
		}
	}
	// Perfect linear relationships hit the bounds exactly (up to fp).
	xs := gen(20, 0)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 1
	}
	if r, _ := PearsonCorrelation(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v, want 1", r)
	}
	for i := range ys {
		ys[i] = -ys[i]
	}
	if r, _ := PearsonCorrelation(xs, ys); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v, want -1", r)
	}
}

// TestMomentsMatchBatch: the streaming Welford moments agree with the
// batch formulas on random data, and variance is never negative — even
// for near-constant series where naive sum-of-squares cancels
// catastrophically.
func TestMomentsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(200)
		offset := math.Pow(10, float64(rng.Intn(13))) // up to 1e12: cancellation stress
		scale := math.Pow(10, float64(-rng.Intn(6)))
		xs := make([]float64, n)
		var m Moments
		for i := range xs {
			xs[i] = offset + scale*rng.NormFloat64()
			m.Add(xs[i])
		}
		if v := m.Variance(); v < 0 {
			t.Fatalf("trial %d: negative streaming variance %v", trial, v)
		}
		bm := Mean(xs)
		bv, err := Variance(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rel(m.Mean(), bm) > 1e-9 {
			t.Fatalf("trial %d: mean %v vs batch %v", trial, m.Mean(), bm)
		}
		// The batch two-pass formula is itself accurate; Welford should
		// track it closely relative to mean², the cancellation scale.
		if math.Abs(m.Variance()-bv) > 1e-9*(bv+m.Mean()*m.Mean()*1e-7) {
			t.Fatalf("trial %d: variance %v vs batch %v (offset %g)", trial, m.Variance(), bv, offset)
		}
		if m.Min() != Min(xs) || m.Max() != Max(xs) {
			t.Fatalf("trial %d: min/max mismatch", trial)
		}
	}
}

// TestForkStreamsDisjoint: two sibling streams forked from the same
// parent share no values across 10⁶ draws each. Uint64 collisions
// between a million-draw pair of truly independent streams are
// essentially impossible (expected ≈ 5e-8), so any overlap means the
// derivation is correlated.
func TestForkStreamsDisjoint(t *testing.T) {
	const draws = 1_000_000
	root := NewRNG(42)
	a := root.Fork("machine/0").Stream("noise")
	b := root.Fork("machine/1").Stream("noise")
	vals := make([]uint64, 0, 2*draws)
	for i := 0; i < draws; i++ {
		vals = append(vals, a.Uint64())
	}
	for i := 0; i < draws; i++ {
		vals = append(vals, b.Uint64())
	}
	aSet := vals[:draws]
	sort.Slice(aSet, func(i, j int) bool { return aSet[i] < aSet[j] })
	for _, v := range vals[draws:] {
		idx := sort.Search(draws, func(i int) bool { return aSet[i] >= v })
		if idx < draws && aSet[idx] == v {
			t.Fatalf("forked sibling streams share value %#x", v)
		}
	}
}

// TestForkPureFunctionOfPath: a forked stream is a pure function of
// (root seed, label path): re-deriving yields the identical sequence,
// different labels or seeds yield different sequences, and forking one
// child never perturbs a sibling.
func TestForkPureFunctionOfPath(t *testing.T) {
	seq := func(seed int64, labels ...string) []uint64 {
		r := NewRNG(seed)
		for _, l := range labels {
			r = r.Fork(l)
		}
		s := r.Stream("x")
		out := make([]uint64, 16)
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(seq(1, "a", "b"), seq(1, "a", "b")) {
		t.Error("same path not reproducible")
	}
	if same(seq(1, "a", "b"), seq(1, "a", "c")) {
		t.Error("different leaf labels collide")
	}
	if same(seq(1, "a", "b"), seq(1, "b", "a")) {
		t.Error("path order ignored")
	}
	if same(seq(1, "a"), seq(2, "a")) {
		t.Error("root seed ignored")
	}
	// Forking a child from the parent does not perturb the parent or an
	// existing sibling (factories are immutable).
	root := NewRNG(7)
	before := root.Fork("sib").Stream("x").Uint64()
	_ = root.Fork("other")
	after := root.Fork("sib").Stream("x").Uint64()
	if before != after {
		t.Error("forking a sibling perturbed an existing stream")
	}
}

// rel returns |a-b| / max(1, |a|, |b|).
func rel(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / m
}
