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
	"sort"
	"time"
)

// Point is one timestamped observation.
type Point struct {
	Time  time.Time
	Value float64
}

// Series is an append-only time series with optional bounded
// retention. It requires non-decreasing timestamps on Append, which is
// what the per-machine sampler produces; out-of-order ingestion is the
// pipeline's job to sort before constructing a Series.
type Series struct {
	points  []Point
	maxAge  time.Duration // 0 = unbounded
	maxSize int           // 0 = unbounded
}

// New returns an empty, unbounded series.
func New() *Series { return &Series{} }

// NewBounded returns a series that retains at most maxSize points and
// drops points older than maxAge relative to the newest point. A zero
// value for either bound disables it.
func NewBounded(maxAge time.Duration, maxSize int) *Series {
	return &Series{maxAge: maxAge, maxSize: maxSize}
}

// Append adds a point. It returns an error if t is before the last
// appended timestamp (equal timestamps replace the previous value,
// which lets a sampler re-emit a corrected reading).
func (s *Series) Append(t time.Time, v float64) error {
	if n := len(s.points); n > 0 {
		last := s.points[n-1].Time
		if t.Before(last) {
			return fmt.Errorf("timeseries: out-of-order append: %v before %v", t, last)
		}
		if t.Equal(last) {
			s.points[n-1].Value = v
			return nil
		}
	}
	s.points = append(s.points, Point{Time: t, Value: v})
	s.trim()
	return nil
}

func (s *Series) trim() {
	if s.maxSize > 0 && len(s.points) > s.maxSize {
		drop := len(s.points) - s.maxSize
		s.points = append(s.points[:0], s.points[drop:]...)
	}
	if s.maxAge > 0 && len(s.points) > 0 {
		cutoff := s.points[len(s.points)-1].Time.Add(-s.maxAge)
		i := sort.Search(len(s.points), func(i int) bool {
			return !s.points[i].Time.Before(cutoff)
		})
		if i > 0 {
			s.points = append(s.points[:0], s.points[i:]...)
		}
	}
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.points) }

// Last returns the most recent point and true, or a zero Point and
// false when the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// At returns the i-th oldest retained point.
func (s *Series) At(i int) Point { return s.points[i] }

// Window returns the points with from ≤ t < to, as a copy.
func (s *Series) Window(from, to time.Time) []Point {
	w := s.span(from, to)
	out := make([]Point, len(w))
	copy(out, w)
	return out
}

// span returns the retained points with from ≤ t < to, sharing s's
// storage.
func (s *Series) span(from, to time.Time) []Point {
	lo := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].Time.Before(from)
	})
	hi := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].Time.Before(to)
	})
	return s.points[lo:max(lo, hi)]
}

// Values returns all retained values in time order, as a copy.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.Value
	}
	return out
}

// CountSince returns how many points in [from, to) satisfy pred.
// The anomaly rule ("flagged ≥ 3 times in 5 minutes", §4.1) is a
// CountSince over the outlier indicator.
func (s *Series) CountSince(from, to time.Time, pred func(float64) bool) int {
	n := 0
	lo := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].Time.Before(from)
	})
	for _, p := range s.points[lo:] {
		if !p.Time.Before(to) {
			break
		}
		if pred(p.Value) {
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
	period   time.Duration
	keys     []int64 // bucket starts in UnixNano, strictly increasing
	// Values holds the bucketed series' first value in each bucket.
	Values []float64
}

// Bucket returns s's points with from ≤ t < to grouped by
// Time.Truncate(period), so samples taken a few seconds apart within
// the same sampling minute share a bucket; where several points fall
// in one bucket, the first is kept. A period ≤ 0 buckets by the
// nanosecond.
func (s *Series) Bucket(from, to time.Time, period time.Duration) Buckets {
	if period <= 0 {
		period = time.Nanosecond
	}
	pts := s.span(from, to)
	b := Buckets{from: from, to: to, period: period,
		keys: make([]int64, 0, len(pts)), Values: make([]float64, 0, len(pts))}
	for _, p := range pts {
		k := bucketKey(p, period)
		if n := len(b.keys); n > 0 && b.keys[n-1] == k {
			continue
		}
		b.keys = append(b.keys, k)
		b.Values = append(b.Values, p.Value)
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
	for _, p := range s.span(b.from, b.to) {
		k := bucketKey(p, b.period)
		for i < len(b.keys) && b.keys[i] < k {
			i++
		}
		if i == len(b.keys) {
			break
		}
		if b.keys[i] == k {
			dst[i] = p.Value
			i++ // later points in this bucket are not its first
		}
	}
	return dst
}

func bucketKey(p Point, period time.Duration) int64 { return p.Time.Truncate(period).UnixNano() }
