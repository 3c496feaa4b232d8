// Package timeseries provides the small time-series toolkit CPI² needs:
// append-only timestamped series with bounded retention, window
// extraction, and time-alignment by sampling-period bucket.
//
// CPI² works on coarse, regular data — one CPI sample per task per
// minute — but samples can be missing (sampler skipped, task just
// started, pipeline loss), so the correlation analysis must align a
// victim's CPI samples with a suspect's CPU-usage samples by timestamp
// rather than by index. Alignment here is exact-match on timestamp
// after bucketing to the sampling period, which mirrors the paper's
// "time-aligned pair of samples" (§4.2): the victim's window is
// bucketed once (Bucket) and each suspect is read onto those buckets
// (Buckets.Read).
package timeseries

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Point is one timestamped observation.
type Point struct {
	Time  time.Time
	Value float64
}

// sample is how a Series stores a Point: its time in Unix nanoseconds
// beside its value, 16 bytes where a Point takes 32. The series keeps
// the location once.
type sample struct {
	ns int64
	v  float64
}

// The instants UnixNano can represent: about 1678 to 2262. The zero
// Time lies outside them.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// Series is an append-only time series with optional bounded
// retention. It requires non-decreasing timestamps on Append, which is
// what the per-machine sampler produces; out-of-order ingestion is the
// pipeline's job to sort before constructing a Series.
//
// Points come back in the location of the first point appended, at
// instants Equal to the ones appended.
type Series struct {
	points  []sample
	loc     *time.Location // the first point's; nil while empty
	maxAge  time.Duration  // 0 = unbounded
	maxSize int            // 0 = unbounded
	capHint int            // storage stops doubling here; 0 = no hint
}

// New returns an empty, unbounded series.
func New() *Series { return &Series{} }

// Bounded returns an empty series that retains at most maxSize points
// and drops points older than maxAge relative to the newest point. A
// zero value for either bound disables it. Its storage doubles as
// points arrive but stops at capHint points, the most its bounds keep
// at its sampling period, so a series that reaches its bounds never
// reallocates and a short-lived one never pays for the whole window. A
// capHint of 0 sets no limit; past capHint the storage doubles again.
// Store the result by value only while it is empty: copies share
// storage once points arrive.
func Bounded(maxAge time.Duration, maxSize, capHint int) Series {
	return Series{maxAge: maxAge, maxSize: maxSize, capHint: capHint}
}

// Append adds a point. It returns an error if t is before the last
// appended timestamp (equal timestamps replace the previous value,
// which lets a sampler re-emit a corrected reading), or if t is outside
// the years UnixNano represents (1678 to 2262), which includes the zero
// Time.
func (s *Series) Append(t time.Time, v float64) error {
	if t.Before(minTime) || t.After(maxTime) {
		return fmt.Errorf("timeseries: %v is outside the years 1678 to 2262", t)
	}
	ns := t.UnixNano()
	if n := len(s.points); n > 0 {
		last := s.points[n-1].ns
		if ns < last {
			return fmt.Errorf("timeseries: out-of-order append: %v before %v", t, s.point(n-1).Time)
		}
		if ns == last {
			s.points[n-1].v = v
			return nil
		}
	} else { // the first point: a series never empties once it has one
		s.loc = t.Location()
	}
	s.trim(ns)
	if len(s.points) == cap(s.points) && cap(s.points) < s.capHint {
		grown := make([]sample, len(s.points), min(max(2*cap(s.points), 1), s.capHint))
		copy(grown, s.points)
		s.points = grown
	}
	s.points = append(s.points, sample{ns, v})
	return nil
}

// trim drops the points that appending one at newest pushes out of the
// bounds. It runs before the append, so the series never holds a point
// more than its bounds keep.
func (s *Series) trim(newest int64) {
	drop := 0
	if s.maxSize > 0 {
		drop = max(0, len(s.points)+1-s.maxSize)
	}
	if s.maxAge > 0 {
		cutoff := newest - int64(s.maxAge)
		if cutoff > newest { // wrapped below the earliest instant: keep all
			cutoff = math.MinInt64
		}
		for drop < len(s.points) && s.points[drop].ns < cutoff {
			drop++
		}
	}
	if drop > 0 {
		s.points = append(s.points[:0], s.points[drop:]...)
	}
}

// point returns the i-th oldest retained point as a Point.
func (s *Series) point(i int) Point {
	p := s.points[i]
	return Point{Time: time.Unix(0, p.ns).In(s.loc), Value: p.v}
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.points) }

// Last returns the most recent point and true, or a zero Point and
// false when the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.point(len(s.points) - 1), true
}

// At returns the i-th oldest retained point.
func (s *Series) At(i int) Point { return s.point(i) }

// Window returns the points with from ≤ t < to, as a copy.
func (s *Series) Window(from, to time.Time) []Point {
	lo, hi := s.span(from, to)
	out := make([]Point, hi-lo)
	for i := range out {
		out[i] = s.point(lo + i)
	}
	return out
}

// span returns the index range [lo, hi) of the retained points with
// from ≤ t < to.
func (s *Series) span(from, to time.Time) (lo, hi int) {
	lo, hi = s.search(from), s.search(to)
	return lo, max(lo, hi)
}

// search returns the index of the first retained point at or after t.
func (s *Series) search(t time.Time) int {
	switch {
	case t.Before(minTime):
		return 0
	case t.After(maxTime):
		return len(s.points)
	}
	ns := t.UnixNano()
	return sort.Search(len(s.points), func(i int) bool { return s.points[i].ns >= ns })
}

// Values returns all retained values in time order, as a copy.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.v
	}
	return out
}

// CountSince returns how many points in [from, to) satisfy pred.
// The anomaly rule ("flagged ≥ 3 times in 5 minutes", §4.1) is a
// CountSince over the outlier indicator.
func (s *Series) CountSince(from, to time.Time, pred func(float64) bool) int {
	n := 0
	lo, hi := s.span(from, to)
	for _, p := range s.points[lo:hi] {
		if pred(p.v) {
			n++
		}
	}
	return n
}

// Buckets is one window of a series bucketed to a sampling period:
// the series' first point in each period bucket, in time order. CPI²
// pairs a victim's CPI with each suspect's usage over "time-aligned
// pairs of samples" (§4.2): the victim's window is bucketed once, and
// Read puts every suspect onto the same buckets.
type Buckets struct {
	from, to time.Time
	period   uint64  // nanoseconds, ≥ 1
	shift    uint64  // the zero Time's offset before the Unix epoch, mod period
	keys     []int64 // bucket starts in UnixNano, strictly increasing
	// Values holds the bucketed series' first value in each bucket.
	Values []float64
}

// zeroTimeBeforeUnix is how many seconds the zero Time (1 January of
// year 1, UTC) lies before the Unix epoch.
const zeroTimeBeforeUnix = 62135596800

// Bucket returns s's points with from ≤ t < to grouped by
// Time.Truncate(period), so samples taken a few seconds apart within
// the same sampling minute share a bucket; where several points fall
// in one bucket, the first is kept. A period ≤ 0 buckets by the
// nanosecond.
func (s *Series) Bucket(from, to time.Time, period time.Duration) Buckets {
	if period <= 0 {
		period = time.Nanosecond
	}
	lo, hi := s.span(from, to)
	hiShift, loShift := bits.Mul64(zeroTimeBeforeUnix, uint64(time.Second))
	b := Buckets{from: from, to: to, period: uint64(period),
		shift: bits.Rem64(hiShift, loShift, uint64(period)),
		keys:  make([]int64, 0, hi-lo), Values: make([]float64, 0, hi-lo)}
	for _, p := range s.points[lo:hi] {
		k := b.key(p.ns)
		if n := len(b.keys); n > 0 && b.keys[n-1] == k {
			continue
		}
		b.keys = append(b.keys, k)
		b.Values = append(b.Values, p.v)
	}
	return b
}

// Len returns the number of buckets.
func (b Buckets) Len() int { return len(b.keys) }

// Read sets dst[i] to s's first value in bucket i of b's window, or to
// 0 where s has no point there, and returns dst, which must have length
// b.Len(). It reads s's window in place: bucket keys never decrease
// along either side, so one forward pass over both finds every match.
func (b Buckets) Read(dst []float64, s *Series) []float64 {
	clear(dst)
	i := 0
	lo, hi := s.span(b.from, b.to)
	for _, p := range s.points[lo:hi] {
		k := b.key(p.ns)
		for i < len(b.keys) && b.keys[i] < k {
			i++
		}
		if i == len(b.keys) {
			break
		}
		if b.keys[i] == k {
			dst[i] = p.v
			i++ // later points in this bucket are not its first
		}
	}
	return dst
}

// key returns time.Unix(0, ns).Truncate(period).UnixNano(). Truncate
// counts periods from the zero Time, not from the Unix epoch, so the
// remainder is taken after shifting ns by the zero Time's offset; for a
// period that does not divide that offset the two give other keys.
func (b *Buckets) key(ns int64) int64 {
	m := ns % int64(b.period)
	if m < 0 {
		m += int64(b.period)
	}
	return ns - int64((uint64(m)+b.shift)%b.period)
}
