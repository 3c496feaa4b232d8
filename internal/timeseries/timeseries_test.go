package timeseries

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	s := Bounded(0, 3, 0)
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
	s := Bounded(10*time.Second, 0, 0)
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

// refSeries is the reference Series: a []Point holding each point's
// full time.Time, appended and then trimmed, with no capacity hint.
// TestSeriesMatchesReference holds Series to it.
type refSeries struct {
	points  []Point
	maxAge  time.Duration
	maxSize int
}

func (s *refSeries) Append(t time.Time, v float64) error {
	if n := len(s.points); n > 0 {
		last := s.points[n-1].Time
		if t.Before(last) {
			return errOutOfOrder
		}
		if t.Equal(last) {
			s.points[n-1].Value = v
			return nil
		}
	}
	s.points = append(s.points, Point{Time: t, Value: v})
	if s.maxSize > 0 && len(s.points) > s.maxSize {
		s.points = s.points[len(s.points)-s.maxSize:]
	}
	if s.maxAge > 0 {
		cutoff := s.points[len(s.points)-1].Time.Add(-s.maxAge)
		for len(s.points) > 0 && s.points[0].Time.Before(cutoff) {
			s.points = s.points[1:]
		}
	}
	return nil
}

var errOutOfOrder = errors.New("out of order")

func (s *refSeries) Window(from, to time.Time) []Point {
	var out []Point
	for _, p := range s.points {
		if !p.Time.Before(from) && p.Time.Before(to) {
			out = append(out, p)
		}
	}
	return out
}

// bucket returns the first point's bucket key and value per
// Time.Truncate(period) bucket of the window, as Bucket did.
func (s *refSeries) bucket(from, to time.Time, period time.Duration) (keys []int64, vals []float64) {
	if period <= 0 {
		period = time.Nanosecond
	}
	for _, p := range s.Window(from, to) {
		k := p.Time.Truncate(period).UnixNano()
		if n := len(keys); n > 0 && keys[n-1] == k {
			continue
		}
		keys = append(keys, k)
		vals = append(vals, p.Value)
	}
	return keys, vals
}

// samePoint reports whether p and q are the same instant in the same
// location with the same value bits.
func samePoint(p, q Point) bool {
	return p.Time.Equal(q.Time) && p.Time.Location() == q.Time.Location() &&
		math.Float64bits(p.Value) == math.Float64bits(q.Value)
}

func samePoints(x, y []Point) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !samePoint(x[i], y[i]) {
			return false
		}
	}
	return true
}

// TestSeriesMatchesReference drives Series and refSeries with the same
// seeded streams and requires identical answers from every reader after
// every step. A stream samples once a minute, on the minute or each
// point up to a sampling duration (10 s) late, and mixes in equal-timestamp
// overwrites, out-of-order appends (refused by both), gaps of several
// minutes, and bursts seconds apart; bounds are by age, by size, both
// or neither, with and without a capacity hint, in UTC and in a zone
// whose offset is not a whole hour.
func TestSeriesMatchesReference(t *testing.T) {
	const interval = time.Minute
	rng := rand.New(rand.NewSource(7))
	zones := []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800)}
	periods := []time.Duration{0, time.Nanosecond, 7 * time.Second, time.Minute, 90 * time.Second, time.Hour}
	type pair struct {
		s    Series
		ref  *refSeries
		slot int       // the sampling slot of the newest append
		last time.Time // the newest appended time
	}
	for trial := 0; trial < 200; trial++ {
		loc := zones[trial%len(zones)]
		start := time.Date(2011, 11, 1, 0, 0, 0, 0, loc).Add(time.Duration(rng.Int63n(int64(time.Hour))))
		var maxAge time.Duration
		var maxSize, hint int
		if rng.Intn(3) > 0 {
			maxAge = time.Duration(1+rng.Intn(20)) * interval
		}
		if rng.Intn(3) == 0 {
			maxSize = 1 + rng.Intn(15)
		}
		if rng.Intn(2) == 0 {
			hint = int(maxAge/interval) + 2
		}
		// Every other pair of trials samples on the minute, so points
		// land exactly on an age bound.
		jitter := time.Duration(0)
		if trial%4 >= 2 {
			jitter = 10 * time.Second
		}
		var sides [2]*pair
		for i := range sides {
			sides[i] = &pair{s: Bounded(maxAge, maxSize, hint),
				ref: &refSeries{maxAge: maxAge, maxSize: maxSize}}
		}
		for step := 0; step < 80; step++ {
			for _, p := range sides {
				var ts time.Time
				switch r := rng.Intn(20); {
				case r == 0 && step > 0: // a corrected reading
					ts = p.last
				case r == 1 && step > 0: // out of order
					ts = p.last.Add(-time.Duration(1 + rng.Int63n(int64(3*interval))))
				case r == 2: // a burst: the next point seconds later
					ts = p.last.Add(time.Duration(1 + rng.Int63n(int64(10*time.Second))))
					if step == 0 {
						ts = start
					}
				default: // the next sampling slot, or a gap of several
					p.slot++
					if r == 3 {
						p.slot += rng.Intn(10)
					}
					ts = start.Add(time.Duration(p.slot) * interval)
					if jitter > 0 {
						ts = ts.Add(time.Duration(rng.Int63n(int64(jitter))))
					}
				}
				v := rng.NormFloat64()
				if rng.Intn(4) == 0 {
					v = 0
				}
				err, refErr := p.s.Append(ts, v), p.ref.Append(ts, v)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("trial %d step %d: Append(%v) = %v, reference %v", trial, step, ts, err, refErr)
				}
				if err == nil && ts.After(p.last) {
					p.last = ts
				}
			}
			for side, p := range sides {
				s, ref := &p.s, p.ref
				where := func() string { return fmt.Sprintf("trial %d step %d side %d", trial, step, side) }
				if s.Len() != len(ref.points) {
					t.Fatalf("%s: Len = %d, reference %d", where(), s.Len(), len(ref.points))
				}
				for i, want := range ref.points {
					if got := s.At(i); !samePoint(got, want) {
						t.Fatalf("%s: At(%d) = %v, reference %v", where(), i, got, want)
					}
				}
				last, ok := s.Last()
				if ok != (len(ref.points) > 0) || ok && !samePoint(last, ref.points[len(ref.points)-1]) {
					t.Fatalf("%s: Last = %v, %v", where(), last, ok)
				}
				wantVals := make([]float64, len(ref.points))
				for i, q := range ref.points {
					wantVals[i] = q.Value
				}
				if !sameBits(s.Values(), wantVals) {
					t.Fatalf("%s: Values = %v, reference %v", where(), s.Values(), wantVals)
				}
				from := start.Add(time.Duration(rng.Int63n(int64(time.Duration(p.slot+2) * interval))))
				to := from.Add(time.Duration(rng.Int63n(int64(25 * interval))))
				if rng.Intn(8) == 0 {
					from, to = to, from // an empty or inverted window
				}
				if got, want := s.Window(from, to), ref.Window(from, to); !samePoints(got, want) {
					t.Fatalf("%s: Window(%v, %v) = %v, reference %v", where(), from, to, got, want)
				}
				pos := func(v float64) bool { return v > 0 }
				wantCount := 0
				for _, q := range ref.Window(from, to) {
					if pos(q.Value) {
						wantCount++
					}
				}
				if got := s.CountSince(from, to, pos); got != wantCount {
					t.Fatalf("%s: CountSince(%v, %v) = %d, reference %d", where(), from, to, got, wantCount)
				}
				period := periods[rng.Intn(len(periods))]
				b := s.Bucket(from, to, period)
				wantKeys, wantVals := ref.bucket(from, to, period)
				if len(b.keys) != len(wantKeys) || b.Len() != len(wantKeys) || !sameBits(b.Values, wantVals) {
					t.Fatalf("%s: Bucket(%v, %v, %v) = %v, reference %v", where(), from, to, period, b.Values, wantVals)
				}
				for i := range wantKeys {
					if b.keys[i] != wantKeys[i] {
						t.Fatalf("%s: bucket key %d = %d, reference %d", where(), i, b.keys[i], wantKeys[i])
					}
				}
				// Read the other side onto these buckets.
				other := sides[1-side].ref
				otherKeys, otherVals := other.bucket(from, to, period)
				want := make([]float64, len(wantKeys))
				for i, k := range wantKeys {
					if j := slices.Index(otherKeys, k); j >= 0 {
						want[i] = otherVals[j]
					}
				}
				dst := make([]float64, b.Len())
				for i := range dst {
					dst[i] = math.NaN()
				}
				if got := b.Read(dst, &sides[1-side].s); !sameBits(got, want) {
					t.Fatalf("%s: Read = %v, reference %v", where(), got, want)
				}
			}
		}
	}
}

// TestBucketKeyMatchesTruncate requires Buckets.key to equal
// Time.Truncate(period).UnixNano() for periods that divide the zero
// Time's offset from the Unix epoch and periods that do not, over the
// whole range of Unix nanoseconds.
func TestBucketKeyMatchesTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	periods := []time.Duration{time.Nanosecond, 7, time.Second, 13 * time.Second, time.Minute,
		time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 1<<40 + 1, math.MaxInt64}
	for _, period := range periods {
		b := New().Bucket(t0, t0, period)
		for i := 0; i < 2000; i++ {
			ns := rng.Int63() - rng.Int63()
			switch i {
			case 0:
				ns = math.MinInt64
			case 1:
				ns = math.MaxInt64
			case 2:
				ns = 0
			}
			if got, want := b.key(ns), time.Unix(0, ns).Truncate(period).UnixNano(); got != want {
				t.Fatalf("period %v: key(%d) = %d, Truncate gives %d", period, ns, got, want)
			}
		}
	}
}

// TestSeriesSteadyStateAllocatesNothing fills series sized as the
// manager sizes its CPI and usage series (look-back 20 minutes: a hint
// of LookBack/SamplingInterval + 2 = 22) and its outlier flags
// (2 × a 5-minute violation window: 12), sampled once a minute exactly
// or up to a sampling duration (10 s) late. After three look-backs, an
// Append allocates nothing, and no series' capacity ever exceeds its
// hint.
func TestSeriesSteadyStateAllocatesNothing(t *testing.T) {
	const interval = time.Minute
	for _, c := range []struct {
		name   string
		maxAge time.Duration
		hint   int
	}{
		{"manager", 20 * time.Minute, 22},
		{"flags", 10 * time.Minute, 12},
	} {
		for _, jitter := range []time.Duration{0, 10 * time.Second} {
			rng := rand.New(rand.NewSource(1))
			s := Bounded(c.maxAge, 0, c.hint)
			slot := 0
			next := func() {
				slot++
				ts := t0.Add(time.Duration(slot) * interval)
				if jitter > 0 {
					ts = ts.Add(time.Duration(rng.Int63n(int64(jitter))))
				}
				if err := s.Append(ts, float64(slot)); err != nil {
					t.Fatal(err)
				}
				if cap(s.points) > c.hint {
					t.Fatalf("%s jitter %v: capacity %d after %d appends, hint %d", c.name, jitter, cap(s.points), slot, c.hint)
				}
			}
			for slot < 3*int(c.maxAge/interval) {
				next()
			}
			if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
				t.Errorf("%s jitter %v: steady-state Append allocates %.1f times", c.name, jitter, allocs)
			}
		}
	}
}

// TestAppendRejectsOutOfRange: UnixNano is undefined outside the years
// 1678 to 2262, so Append refuses such times, the zero Time among them,
// instead of storing a wrapped instant; the edges themselves are kept.
func TestAppendRejectsOutOfRange(t *testing.T) {
	s := New()
	for _, ts := range []time.Time{
		{},
		time.Date(1677, 9, 21, 0, 0, 0, 0, time.UTC),
		minTime.Add(-time.Nanosecond),
		maxTime.Add(time.Nanosecond),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		if err := s.Append(ts, 1); err == nil {
			t.Errorf("Append(%v) accepted a time UnixNano cannot represent", ts)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after refused appends, want 0", s.Len())
	}
	for _, ts := range []time.Time{minTime, t0, maxTime} {
		if err := s.Append(ts, 2); err != nil {
			t.Fatalf("Append(%v): %v", ts, err)
		}
	}
	if s.Len() != 3 || !s.At(0).Time.Equal(minTime) || !s.At(2).Time.Equal(maxTime) {
		t.Errorf("edges not kept: %v .. %v", s.At(0), s.At(s.Len()-1))
	}
	if w := s.Window(time.Time{}, maxTime.Add(time.Hour)); len(w) != 3 {
		t.Errorf("a window wider than the range holds %d points, want 3", len(w))
	}
}

// TestSeriesKeepsLocation: points come back at the instants appended,
// in the location they were appended in, from At, Last and Window.
func TestSeriesKeepsLocation(t *testing.T) {
	loc := time.FixedZone("UTC-3:30", -(3*3600 + 1800))
	s := Bounded(time.Hour, 0, 0)
	var want []time.Time
	for i := 0; i < 5; i++ {
		ts := time.Date(2011, 11, 1, 23, 59, 30+i, 5, loc)
		want = append(want, ts)
		if err := s.Append(ts, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string, got time.Time, i int) {
		t.Helper()
		if !got.Equal(want[i]) || got.Location() != loc || got.String() != want[i].String() {
			t.Errorf("%s: %v, want %v", how, got, want[i])
		}
	}
	for i := range want {
		check("At", s.At(i).Time, i)
	}
	last, _ := s.Last()
	check("Last", last.Time, len(want)-1)
	for i, p := range s.Window(want[1], want[4]) {
		check("Window", p.Time, i+1)
	}
}
