// Package timeseries provides the small time-series toolkit CPI² needs:
// append-only timestamped series with bounded retention, window
// extraction, pairwise time-alignment, and fixed-period resampling.
//
// CPI² works on coarse, regular data — one CPI sample per task per
// minute — but samples can be missing (sampler skipped, task just
// started, pipeline loss), so the correlation analysis must align a
// victim's CPI samples with a suspect's CPU-usage samples by timestamp
// rather than by index. Alignment here is exact-match on timestamp
// after bucketing to the sampling period, which mirrors the paper's
// "time-aligned pair of samples" (§4.2).
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
	lo := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].Time.Before(from)
	})
	hi := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].Time.Before(to)
	})
	out := make([]Point, hi-lo)
	copy(out, s.points[lo:hi])
	return out
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

// Align buckets both series to period and returns the values at
// timestamps present in both, in time order. Bucketing uses
// Time.Truncate(period), so samples taken a few seconds apart within
// the same sampling minute align. Timestamps present in only one
// series are dropped — CPI² correlates only time-aligned pairs.
func Align(a, b *Series, period time.Duration) (av, bv []float64) {
	if period <= 0 {
		period = time.Nanosecond
	}
	bBuckets := make(map[int64]float64, len(b.points))
	for _, p := range b.points {
		key := p.Time.Truncate(period).UnixNano()
		if _, ok := bBuckets[key]; ok {
			continue // keep first observation per bucket, like the a side
		}
		bBuckets[key] = p.Value
	}
	seen := make(map[int64]bool, len(a.points))
	for _, p := range a.points {
		key := p.Time.Truncate(period).UnixNano()
		if seen[key] {
			continue // keep first observation per bucket
		}
		if bVal, ok := bBuckets[key]; ok {
			seen[key] = true
			av = append(av, p.Value)
			bv = append(bv, bVal)
		}
	}
	return av, bv
}
