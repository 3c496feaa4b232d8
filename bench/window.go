package main

import (
	"runtime"
	"time"
)

// window is one unit of measured work — a simulated minute of the
// cluster, one round of the daemon path, or one set-up — with what it
// cost.
type window struct {
	wall    time.Duration
	cpu     float64 // process user+system seconds
	samples int64   // samples folded
	// steal is the time the hypervisor withheld from the machine's CPUs
	// while the window ran, in clock ticks (0 where it cannot be read).
	steal int64
}

// tickMs is the length of a /proc/stat clock tick: USER_HZ is 100 on
// Linux.
const tickMs = 10.0

// windowMeter measures one window.
type windowMeter struct {
	began time.Time
	cpu   float64
	steal int64
}

func startWindow() windowMeter {
	return windowMeter{steal: stealTicks(), cpu: cpuSeconds(), began: time.Now()}
}

func (m windowMeter) stop(samples int64) window {
	w := window{wall: time.Since(m.began), cpu: cpuSeconds() - m.cpu, samples: samples}
	if now := stealTicks(); now >= 0 && m.steal >= 0 {
		w.steal = now - m.steal
	}
	return w
}

// stealSlope estimates how much of ys one stolen clock tick accounts
// for: the Theil–Sen estimator (the median of the slopes between every
// two windows that suffered different steal), which a few windows hit by
// something else — a collection, a spec refresh — do not move. It is
// clamped to [0, tickMs]: a stolen tick cannot shorten a window, nor
// lengthen it by more than itself. With too few distinct pairs to tell
// (a quiet host) it is 0.
func stealSlope(ys []float64, wins []window) float64 {
	var slopes []float64
	for i := range wins {
		for j := i + 1; j < len(wins); j++ {
			if ds := wins[j].steal - wins[i].steal; ds != 0 {
				slopes = append(slopes, (ys[j]-ys[i])/float64(ds))
			}
		}
	}
	if len(slopes) < 10 {
		return 0
	}
	b := median(slopes)
	if b < 0 {
		return 0
	}
	if b > tickMs {
		return tickMs
	}
	return b
}

// stealAdjust removes slope × stolen ticks from each y, never taking
// away more than three quarters of it.
func stealAdjust(ys []float64, wins []window, slope float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y - slope*float64(wins[i].steal)
		if out[i] < y/4 {
			out[i] = y / 4
		}
	}
	return out
}

// windowCosts is how a run's windows respond to stolen CPU time.
type windowCosts struct {
	wallMsPerTick, cpuMsPerTick float64
}

// setWindowMetrics reports the three end-to-end timing metrics every
// workload shares. On a shared host the hypervisor withholds the CPUs
// for stretches (steal in /proc/stat), in storms that last minutes and
// stretch windows up to threefold; each window's wall and CPU time is
// therefore read at zero steal: its cost is regressed on the ticks
// stolen while it ran, over the run's own windows, and that share is
// taken out. On a dedicated machine steal is zero and nothing changes.
func setWindowMetrics(ms *metricSet, o *outcome, wins []window) windowCosts {
	wallMs := make([]float64, len(wins))
	cpuMs := make([]float64, len(wins))
	var samples, stolen int64
	var wall time.Duration
	for i, w := range wins {
		wallMs[i] = ms64(w.wall)
		cpuMs[i] = w.cpu * 1000
		samples += w.samples
		stolen += w.steal
		wall += w.wall
	}
	costs := windowCosts{stealSlope(wallMs, wins), stealSlope(cpuMs, wins)}
	adjWall := stealAdjust(wallMs, wins, costs.wallMsPerTick)
	adjCPU := stealAdjust(cpuMs, wins, costs.cpuMsPerTick)

	ms.setP50("window_p50_ms", adjWall, 1)
	ms.set("samples_per_s", float64(samples)/sum(adjWall)*1000, len(wins))
	ms.set("cpu_us_per_sample", sum(adjCPU)*1000/float64(samples), len(wins))
	o.stealShare = float64(stolen) * tickMs / (ms64(wall) * float64(runtime.NumCPU()))
	o.note("steal: %.1f%% of the machine's CPU time over %d windows; a stolen tick cost %.2f ms wall and %.2f ms CPU; unadjusted window p50 %.3f ms",
		100*o.stealShare, len(wins), costs.wallMsPerTick, costs.cpuMsPerTick, median(wallMs))
	noteTail(o, "window", adjWall)
	return costs
}

// setSetupMetric reports the median set-up time, each repetition read
// at zero steal with the slope the run's windows gave.
func setSetupMetric(ms *metricSet, setups []window, costs windowCosts) {
	wallS := make([]float64, len(setups))
	for i, w := range setups {
		wallS[i] = ms64(w.wall)
	}
	adj := stealAdjust(wallS, setups, costs.wallMsPerTick)
	ms.setP50("setup_s", adj, 1e-3)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
