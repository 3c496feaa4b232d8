// Package workload implements the applications that run on the
// simulated cluster and produce the application-level signals the
// paper correlates CPI against:
//
//   - websearch.go: a three-tier web-search serving tree (leaf,
//     intermediate, root) reporting per-task request latency under a
//     diurnal query load (Figures 3–5).
//   - batch.go: throughput batch jobs counting transactions and
//     instructions, whose rates track each other (Figure 2), plus a
//     Steady workload for tests and padding tenants.
//   - mapreduce.go: MapReduce-style workers with the cap reactions the
//     case studies document — tolerating caps, lame-duck mode with a
//     thread-count burst (Case 5), and self-termination under repeated
//     capping (Case 6).
//   - bimodal.go: the Case 3 service whose CPI swings are self-
//     inflicted by bimodal CPU usage.
//
// All types implement machine.Workload. Application signals are
// cumulative totals (SearchTask.LatencyTotals, Batch.Completed and
// Batch.Instructions), never per-tick histories: a workload's memory
// does not grow with simulated time, and a caller that wants a rate or
// a mean over an interval reads the totals at its two edges and takes
// the difference, as CPI² itself reads hardware counters.
package workload

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// LoadCurve maps wall time to a load level in [0, 1].
type LoadCurve interface {
	Level(t time.Time) float64
}

// ConstantLoad is a flat load curve.
type ConstantLoad float64

// Level implements LoadCurve.
func (c ConstantLoad) Level(time.Time) float64 { return clamp01(float64(c)) }

// DiurnalLoad is the canonical serving-load shape: a sinusoid between
// Trough and Peak over 24 hours, peaking at PeakHour local time, with
// optional multiplicative jitter.
//
// Determinism note: when Jitter > 0, Level draws from RNG, so a
// DiurnalLoad value must NOT be shared between tasks that may tick
// concurrently (the draw would race) or whose tick order is not fixed
// (the draw order would leak between tasks). Give each task its own
// copy with its own stream — see cluster.WebSearchJob for the pattern.
// Every call is a draw, whether or not its value is used, so adding or
// removing a call moves every later level and with it a seeded run's
// specs and incidents. A SearchTask calls Level once per tick, in
// Demand.
//
// The jitter-free curve, unlike the draw, may be shared: copies of a
// Shared value compute it once per instant between them.
type DiurnalLoad struct {
	Trough   float64 // load level at the quietest hour
	Peak     float64 // load level at the busiest hour
	PeakHour float64 // hour of day of the peak (e.g. 18)
	// Jitter is the relative amplitude of uniform noise (0 disables);
	// RNG must be non-nil when Jitter > 0.
	Jitter float64
	RNG    *rand.Rand

	shared *levelCache // see Shared; nil computes every level
}

// Shared returns d with a cache of its jitter-free level that every
// copy of the result shares, so the tasks built from one template (a
// job's tasks, each with its own RNG) evaluate the curve once per
// instant between them instead of once each. The cache is safe for
// concurrent use and does not allocate; it does not change any level
// or any draw. Copies must keep the template's Trough, Peak and
// PeakHour.
func (d DiurnalLoad) Shared() DiurnalLoad {
	d.shared = new(levelCache)
	return d
}

// Level implements LoadCurve.
func (d DiurnalLoad) Level(t time.Time) float64 {
	var level float64
	if c := d.shared; c == nil {
		level = d.curve(t)
	} else if v, ok := c.load(t); ok {
		level = v
	} else {
		level = d.curve(t)
		c.store(t, level)
	}
	if d.Jitter > 0 && d.RNG != nil {
		level *= 1 + d.Jitter*(2*d.RNG.Float64()-1)
	}
	return clamp01(level)
}

// curve is the jitter-free level at t.
func (d DiurnalLoad) curve(t time.Time) float64 {
	h, mi, sec := t.Clock()
	hour := float64(h) + float64(mi)/60 + float64(sec)/3600
	mid := (d.Peak + d.Trough) / 2
	amp := (d.Peak - d.Trough) / 2
	return mid + amp*math.Cos((hour-d.PeakHour)/24*2*math.Pi)
}

// levelCache holds one jitter-free level and the instant it is for, as
// a seqlock of atomics: seq is odd while a writer fills the other
// fields, and a reader trusts what it read only if seq was even and
// unchanged around its reads. The instant is t's Unix second and
// Location, which fix t.Clock() and so the level. Writers that find
// the lock taken skip the store: the level is a pure function of the
// instant, so every task gets the same value whoever computes it.
type levelCache struct {
	seq   atomic.Uint64
	sec   atomic.Int64
	loc   atomic.Pointer[time.Location]
	level atomic.Uint64 // math.Float64bits of the level
}

// load returns the cached level if it is the one for t's instant.
func (c *levelCache) load(t time.Time) (float64, bool) {
	s := c.seq.Load()
	if s&1 != 0 {
		return 0, false
	}
	hit := c.sec.Load() == t.Unix() && c.loc.Load() == t.Location()
	v := c.level.Load()
	if !hit || c.seq.Load() != s {
		return 0, false
	}
	return math.Float64frombits(v), true
}

// store caches level as the one for t's instant, unless another writer
// holds the lock.
func (c *levelCache) store(t time.Time, level float64) {
	s := c.seq.Load()
	if s&1 != 0 || !c.seq.CompareAndSwap(s, s+1) {
		return
	}
	c.sec.Store(t.Unix())
	c.loc.Store(t.Location())
	c.level.Store(math.Float64bits(level))
	c.seq.Store(s + 2)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
