package timeseries

import (
	"math"
	"math/rand"
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

// align buckets all of a at period and reads all of b onto its
// buckets.
func align(a, b *Series, period time.Duration) (av, bv []float64) {
	ab := a.Bucket(t0.Add(-time.Hour), t0.Add(time.Hour), period)
	return ab.Values, ab.Read(make([]float64, ab.Len()), b)
}

func TestAlignExactAndBucketed(t *testing.T) {
	a, b := New(), New()
	// a sampled at :00 each minute, b at :07 each minute — same bucket.
	for i := 0; i < 5; i++ {
		_ = a.Append(at(i*60), float64(i))
		_ = b.Append(at(i*60+7), float64(i*10))
	}
	av, bv := align(a, b, time.Minute)
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
	// b is missing minutes 1 and 3: those buckets read 0.
	for _, i := range []int{0, 2, 4, 5} {
		_ = b.Append(at(i*60), float64(100+i))
	}
	av, bv := align(a, b, time.Minute)
	if !sameBits(av, []float64{0, 1, 2, 3, 4, 5}) || !sameBits(bv, []float64{100, 0, 102, 0, 104, 105}) {
		t.Errorf("aligned %v, %v", av, bv)
	}
	// Minutes b has and a lacks are not buckets at all.
	av, bv = align(b, a, time.Minute)
	if !sameBits(av, []float64{100, 102, 104, 105}) || !sameBits(bv, []float64{0, 2, 4, 5}) {
		t.Errorf("reversed: aligned %v, %v", av, bv)
	}
}

func TestAlignEmpty(t *testing.T) {
	one := New()
	_ = one.Append(at(0), 1)
	if av, bv := align(New(), New(), time.Minute); len(av) != 0 || len(bv) != 0 {
		t.Error("empty align should be empty")
	}
	if av, bv := align(New(), one, time.Minute); len(av) != 0 || len(bv) != 0 {
		t.Error("an empty victim has no buckets")
	}
	if av, bv := align(one, New(), time.Minute); !sameBits(av, []float64{1}) || !sameBits(bv, []float64{0}) {
		t.Errorf("empty suspect = %v, %v; want it to read 0", av, bv)
	}
	// A degenerate period buckets by the nanosecond without panicking.
	b := New()
	_ = b.Append(at(0), 2)
	for _, period := range []time.Duration{0, -time.Minute} {
		if av, bv := align(one, b, period); !sameBits(av, []float64{1}) || !sameBits(bv, []float64{2}) {
			t.Errorf("period %v align = %v,%v", period, av, bv)
		}
	}
}

func TestAlignSameBucketKeepsFirstOnBothSides(t *testing.T) {
	// Two samples per series land in the same minute bucket. Both sides
	// must keep the FIRST observation, so first-victim is never paired
	// with last-suspect values.
	a, b := New(), New()
	_ = a.Append(at(5), 1)   // minute 0, first
	_ = a.Append(at(40), 2)  // minute 0, second — dropped
	_ = b.Append(at(10), 10) // minute 0, first
	_ = b.Append(at(50), 20) // minute 0, second — dropped
	av, bv := align(a, b, time.Minute)
	if len(av) != 1 || len(bv) != 1 {
		t.Fatalf("aligned %d/%d, want 1/1", len(av), len(bv))
	}
	if av[0] != 1 || bv[0] != 10 {
		t.Errorf("pair = (%v, %v), want (1, 10): first per bucket on both sides", av[0], bv[0])
	}
}

func TestAlignProperty(t *testing.T) {
	// Property: one value per victim bucket on both sides, at most one
	// bucket per victim point, and no more nonzero suspect values than
	// the suspect has points (every point here is nonzero).
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
		av, bv := align(a, b, time.Minute)
		if len(av) != len(bv) || len(av) > a.Len() {
			return false
		}
		read := 0
		for _, v := range bv {
			if v != 0 {
				read++
			}
		}
		return read <= b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// alignReference is the map-based rule Bucket and Read replace, kept
// as the oracle: over from ≤ t < to, the first observation per bucket
// on both sides, one pair per bucket of a in a's time order, and 0
// where b has no point in the bucket.
func alignReference(a, b *Series, from, to time.Time, period time.Duration) (av, bv []float64) {
	if period <= 0 {
		period = time.Nanosecond
	}
	bBuckets := make(map[int64]float64, len(b.points))
	for _, p := range b.Window(from, to) {
		key := p.Time.Truncate(period).UnixNano()
		if _, ok := bBuckets[key]; ok {
			continue
		}
		bBuckets[key] = p.Value
	}
	seen := make(map[int64]bool, len(a.points))
	for _, p := range a.Window(from, to) {
		key := p.Time.Truncate(period).UnixNano()
		if seen[key] {
			continue
		}
		seen[key] = true
		av = append(av, p.Value)
		bv = append(bv, bBuckets[key])
	}
	return av, bv
}

// sameBits reports whether x and y hold the same values bit for bit.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestAlignMatchesReference requires Bucket and Read to equal
// alignReference exactly on seeded series at periods of 1 ns, 1 s and
// 1 min. Steps between points run from 1 ns to two periods, so buckets
// holding several points on either side, buckets on one side only and
// empty series all occur; the window starts and ends inside, before and
// after the points, and Read must overwrite whatever dst held.
func TestAlignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomSeries := func(period time.Duration) *Series {
		s := New()
		ts := t0.Add(time.Duration(rng.Int63n(int64(3 * period))))
		for n := rng.Intn(12); n > 0; n-- {
			ts = ts.Add(1 + time.Duration(rng.Int63n(int64(2*period))))
			if err := s.Append(ts, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for _, period := range []time.Duration{time.Nanosecond, time.Second, time.Minute} {
		for trial := 0; trial < 2000; trial++ {
			a, b := randomSeries(period), randomSeries(period)
			from := t0.Add(time.Duration(rng.Int63n(int64(20 * period))))
			to := from.Add(time.Duration(rng.Int63n(int64(20 * period))))
			wantA, wantB := alignReference(a, b, from, to, period)
			ab := a.Bucket(from, to, period)
			dst := make([]float64, ab.Len())
			for i := range dst {
				dst[i] = math.NaN()
			}
			gotB := ab.Read(dst, b)
			if ab.Len() != len(ab.Values) || !sameBits(ab.Values, wantA) || !sameBits(gotB, wantB) {
				t.Fatalf("period %v trial %d [%v, %v): aligned %v, %v; reference %v, %v",
					period, trial, from, to, ab.Values, gotB, wantA, wantB)
			}
		}
	}
}
