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
// Every call is a draw, whether or not its value is used: a SearchTask
// calls Level twice per tick (in Demand and in Deliver), and both draws
// belong to the seeded stream, so removing either changes every later
// level and with it a seeded run's specs and incidents.
type DiurnalLoad struct {
	Trough   float64 // load level at the quietest hour
	Peak     float64 // load level at the busiest hour
	PeakHour float64 // hour of day of the peak (e.g. 18)
	// Jitter is the relative amplitude of uniform noise (0 disables);
	// RNG must be non-nil when Jitter > 0.
	Jitter float64
	RNG    *rand.Rand
}

// Level implements LoadCurve.
func (d DiurnalLoad) Level(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	mid := (d.Peak + d.Trough) / 2
	amp := (d.Peak - d.Trough) / 2
	level := mid + amp*math.Cos((hour-d.PeakHour)/24*2*math.Pi)
	if d.Jitter > 0 && d.RNG != nil {
		level *= 1 + d.Jitter*(2*d.RNG.Float64()-1)
	}
	return clamp01(level)
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
