package timeseries

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestAppendAndOrder(t *testing.T) {
	s := New()
	if err := s.Append(at(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(at(20), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(at(15), 3); err == nil {
		t.Error("out-of-order append should fail")
	}
	// Equal timestamp replaces.
	if err := s.Append(at(20), 5); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.Value != 5 {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	if s.At(0).Value != 1 {
		t.Errorf("At(0) = %+v", s.At(0))
	}
}

func TestLastEmpty(t *testing.T) {
	s := New()
	if _, ok := s.Last(); ok {
		t.Error("Last on empty should be false")
	}
}

func TestBoundedBySize(t *testing.T) {
	s := NewBounded(0, 3)
	for i := 0; i < 10; i++ {
		if err := s.Append(at(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.At(0).Value != 7 || s.At(2).Value != 9 {
		t.Errorf("retained wrong points: %v..%v", s.At(0), s.At(2))
	}
}

func TestBoundedByAge(t *testing.T) {
	s := NewBounded(10*time.Second, 0)
	for i := 0; i <= 30; i += 5 {
		if err := s.Append(at(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Newest is t=30; cutoff is t=20 inclusive.
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (t=20,25,30)", s.Len())
	}
	if s.At(0).Value != 20 {
		t.Errorf("oldest = %v, want 20", s.At(0).Value)
	}
}

func TestWindow(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		_ = s.Append(at(i*60), float64(i))
	}
	w := s.Window(at(120), at(300))
	if len(w) != 3 { // 120, 180, 240
		t.Fatalf("window len = %d, want 3", len(w))
	}
	if w[0].Value != 2 || w[2].Value != 4 {
		t.Errorf("window = %v", w)
	}
	if len(s.Window(at(1000), at(2000))) != 0 {
		t.Error("empty window expected")
	}
}

func TestValues(t *testing.T) {
	s := New()
	_ = s.Append(at(0), 1.5)
	_ = s.Append(at(1), 2.5)
	vs := s.Values()
	if len(vs) != 2 || vs[0] != 1.5 || vs[1] != 2.5 {
		t.Errorf("Values = %v", vs)
	}
	// Copy semantics: mutating the returned slice must not affect s.
	vs[0] = 99
	if s.At(0).Value != 1.5 {
		t.Error("Values returned aliased storage")
	}
}

func TestCountSince(t *testing.T) {
	s := New()
	// One sample per minute; values 0..9.
	for i := 0; i < 10; i++ {
		_ = s.Append(at(i*60), float64(i))
	}
	// Count values > 6 in the last 5 minutes [5min, 10min): values 5..9.
	n := s.CountSince(at(300), at(600), func(v float64) bool { return v > 6 })
	if n != 3 { // 7, 8, 9
		t.Errorf("CountSince = %d, want 3", n)
	}
	if got := s.CountSince(at(0), at(0), func(float64) bool { return true }); got != 0 {
		t.Errorf("empty range count = %d", got)
	}
}

func TestAlignExactAndBucketed(t *testing.T) {
	a, b := New(), New()
	// a sampled at :00 each minute, b at :07 each minute — same bucket.
	for i := 0; i < 5; i++ {
		_ = a.Append(at(i*60), float64(i))
		_ = b.Append(at(i*60+7), float64(i*10))
	}
	av, bv := Align(a, b, time.Minute)
	if len(av) != 5 || len(bv) != 5 {
		t.Fatalf("aligned %d/%d, want 5/5", len(av), len(bv))
	}
	for i := range av {
		if av[i] != float64(i) || bv[i] != float64(i*10) {
			t.Errorf("pair %d = (%v,%v)", i, av[i], bv[i])
		}
	}
}

func TestAlignMissingSamples(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 6; i++ {
		_ = a.Append(at(i*60), float64(i))
	}
	// b is missing minutes 1 and 3.
	for _, i := range []int{0, 2, 4, 5} {
		_ = b.Append(at(i*60), float64(100+i))
	}
	av, bv := Align(a, b, time.Minute)
	if len(av) != 4 {
		t.Fatalf("aligned %d, want 4", len(av))
	}
	if av[1] != 2 || bv[1] != 102 {
		t.Errorf("pair 1 = (%v, %v)", av[1], bv[1])
	}
}

func TestAlignEmpty(t *testing.T) {
	av, bv := Align(New(), New(), time.Minute)
	if len(av) != 0 || len(bv) != 0 {
		t.Error("empty align should be empty")
	}
	// Degenerate period falls back without panicking.
	a := New()
	_ = a.Append(at(0), 1)
	b := New()
	_ = b.Append(at(0), 2)
	av, bv = Align(a, b, 0)
	if len(av) != 1 || bv[0] != 2 {
		t.Errorf("zero-period align = %v,%v", av, bv)
	}
}

func TestAlignSameBucketKeepsFirstOnBothSides(t *testing.T) {
	// Two samples per series land in the same minute bucket. Both sides
	// must keep the FIRST observation: the b side used to keep the last
	// (later map writes overwrote), silently pairing first-victim with
	// last-suspect values.
	a, b := New(), New()
	_ = a.Append(at(5), 1)   // minute 0, first
	_ = a.Append(at(40), 2)  // minute 0, second — dropped
	_ = b.Append(at(10), 10) // minute 0, first
	_ = b.Append(at(50), 20) // minute 0, second — previously won
	av, bv := Align(a, b, time.Minute)
	if len(av) != 1 || len(bv) != 1 {
		t.Fatalf("aligned %d/%d, want 1/1", len(av), len(bv))
	}
	if av[0] != 1 || bv[0] != 10 {
		t.Errorf("pair = (%v, %v), want (1, 10): first per bucket on both sides", av[0], bv[0])
	}
}

func TestAlignProperty(t *testing.T) {
	// Property: aligned outputs always have equal length ≤ min(lenA, lenB).
	f := func(offsetsA, offsetsB []uint8) bool {
		a, b := New(), New()
		tA, tB := 0, 0
		for _, o := range offsetsA {
			tA += int(o) + 1
			_ = a.Append(at(tA), float64(tA))
		}
		for _, o := range offsetsB {
			tB += int(o) + 1
			_ = b.Append(at(tB), float64(tB))
		}
		av, bv := Align(a, b, time.Minute)
		if len(av) != len(bv) {
			return false
		}
		return len(av) <= a.Len() && len(av) <= b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
