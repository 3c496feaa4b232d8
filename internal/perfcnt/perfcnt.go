// Package perfcnt simulates the hardware performance-counter
// infrastructure CPI² reads: per-cgroup counting-mode counters for
// CPU_CLK_UNHALTED.REF, INSTRUCTIONS_RETIRED and L3 misses, plus the
// duty-cycle sampler that counts for 10 seconds once a minute (§3.1).
//
// The paper's reasons for per-cgroup counting are preserved in the
// design: counters belong to cgroups (not CPUs, which timeshare
// unrelated tasks; not threads, which are too numerous), and counting
// mode — reading totals over a window rather than sampling events —
// keeps the cost fixed.
package perfcnt

import (
	"sort"
	"time"
)

// Counters is a cumulative per-cgroup counter set. The zero value is
// an empty counter set ready for use.
type Counters struct {
	// Cycles is CPU_CLK_UNHALTED.REF: unhalted reference cycles.
	Cycles float64
	// Instructions is INSTRUCTIONS_RETIRED.
	Instructions float64
	// L3Misses counts last-level cache misses.
	L3Misses float64
	// CPUSeconds is cpuacct-style CPU time, used to derive CPU usage.
	CPUSeconds float64
}

// Accumulate charges the counters for cpuSec seconds of execution at
// the given CPI and L3 misses-per-kilo-instruction on a clockGHz
// machine.
func (c *Counters) Accumulate(cpuSec, cpi, mpki, clockGHz float64) {
	if cpuSec <= 0 || cpi <= 0 || clockGHz <= 0 {
		return
	}
	cycles := cpuSec * clockGHz * 1e9
	instr := cycles / cpi
	c.Cycles += cycles
	c.Instructions += instr
	c.L3Misses += instr / 1000 * mpki
	c.CPUSeconds += cpuSec
}

// Sub returns the counter deltas c − prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - prev.Cycles,
		Instructions: c.Instructions - prev.Instructions,
		L3Misses:     c.L3Misses - prev.L3Misses,
		CPUSeconds:   c.CPUSeconds - prev.CPUSeconds,
	}
}

// CPI returns cycles/instructions for the (delta) counters, or 0 when
// no instructions retired.
func (c Counters) CPI() float64 {
	if c.Instructions <= 0 {
		return 0
	}
	return c.Cycles / c.Instructions
}

// L3MPKI returns L3 misses per kilo-instruction, or 0 when no
// instructions retired.
func (c Counters) L3MPKI() float64 {
	if c.Instructions <= 0 {
		return 0
	}
	return c.L3Misses / c.Instructions * 1000
}

// Measurement is one completed sampling window for one cgroup — the
// raw material for a model.Sample.
type Measurement struct {
	Cgroup string
	// Start and Duration delimit the sampling window.
	Start    time.Time
	Duration time.Duration
	// CPUUsage is CPU-sec/sec over the window.
	CPUUsage float64
	// CPI is cycles/instruction over the window.
	CPI float64
	// L3MPKI is L3 misses per kilo-instruction over the window.
	L3MPKI float64
}

// Config sets the sampler duty cycle. The paper gathers CPI for a
// 10-second period once a minute (core.DefaultParams), leaving the
// counters free for other measurement tools the rest of the time.
type Config struct {
	// Duration is the counting window length (default 10s).
	Duration time.Duration
	// Interval is the period between window starts (default 1min).
	Interval time.Duration
}

func (c *Config) sanitize() {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Interval < c.Duration {
		c.Interval = c.Duration
	}
}

// Snapshot is a columnar copy of the per-cgroup cumulative counters:
// Cgroups[i] names the group whose counters are Counts[i]. It is the
// reusable buffer the sampler reads at window edges — a machine fills
// one in place instead of building a fresh map per window boundary.
// Fill both columns to equal length, in any order.
type Snapshot struct {
	Cgroups []string
	Counts  []Counters
}

// Reset empties the snapshot, keeping capacity.
func (s *Snapshot) Reset() {
	s.Cgroups = s.Cgroups[:0]
	s.Counts = s.Counts[:0]
}

// Append adds one cgroup's counters to the snapshot.
func (s *Snapshot) Append(cg string, c Counters) {
	s.Cgroups = append(s.Cgroups, cg)
	s.Counts = append(s.Counts, c)
}

// sort orders the snapshot columns by cgroup name. The sorter is a
// pointer receiver so the sort.Interface conversion does not allocate.
func (s *Snapshot) sort() { sort.Sort((*snapshotSorter)(s)) }

type snapshotSorter Snapshot

func (s *snapshotSorter) Len() int           { return len(s.Cgroups) }
func (s *snapshotSorter) Less(a, b int) bool { return s.Cgroups[a] < s.Cgroups[b] }
func (s *snapshotSorter) Swap(a, b int) {
	s.Cgroups[a], s.Cgroups[b] = s.Cgroups[b], s.Cgroups[a]
	s.Counts[a], s.Counts[b] = s.Counts[b], s.Counts[a]
}

// Sampler implements the duty-cycle counting schedule. Drive it by
// calling Tick with monotonically non-decreasing times and a reader
// that fills a Snapshot with the current cumulative counters per
// cgroup; whenever a counting window completes, Tick returns one
// Measurement per cgroup that was present for the whole window and
// retired instructions.
type Sampler struct {
	cfg      Config
	epoch    time.Time
	hasEpoch bool
	inWindow bool
	start    time.Time

	// Window-start and window-end snapshots plus the measurement
	// buffer, all reused across windows.
	snap Snapshot
	cur  Snapshot
	meas []Measurement
}

// NewSampler returns a sampler with the given duty cycle.
func NewSampler(cfg Config) *Sampler {
	cfg.sanitize()
	return &Sampler{cfg: cfg}
}

// Tick advances the sampler to now. readInto is invoked at window
// boundaries only (at most twice per call), never between them, and
// fills the supplied Snapshot in any order; the sampler sorts. The
// returned Measurement slice is owned by the sampler and reused on the
// next completed window — callers must consume it before the next
// window closes. Measurements cover the cgroups present at both window
// edges with positive retired-instruction deltas, sorted by cgroup.
func (s *Sampler) Tick(now time.Time, readInto func(*Snapshot)) []Measurement {
	if !s.hasEpoch {
		s.epoch = now
		s.hasEpoch = true
	}
	phase := now.Sub(s.epoch) % s.cfg.Interval
	var out []Measurement
	if s.inWindow && now.Sub(s.start) >= s.cfg.Duration {
		s.cur.Reset()
		readInto(&s.cur)
		s.cur.sort()
		out = s.finish(now)
		s.inWindow = false
	}
	if !s.inWindow && phase < s.cfg.Duration {
		s.inWindow = true
		s.start = now
		s.snap.Reset()
		readInto(&s.snap)
		s.snap.sort()
	}
	return out
}

// finish merges the sorted window-start and window-end snapshots with
// two cursors, emitting a measurement per cgroup present in both with
// instructions retired. It uses the actual elapsed window: with coarse
// Tick granularity the window may run longer than the configured
// duration.
func (s *Sampler) finish(now time.Time) []Measurement {
	elapsed := now.Sub(s.start)
	out := s.meas[:0]
	prevCg, prevCnt := s.snap.Cgroups, s.snap.Counts
	curCg, curCnt := s.cur.Cgroups, s.cur.Counts
	i, j := 0, 0
	for i < len(prevCg) && j < len(curCg) {
		switch {
		case prevCg[i] < curCg[j]: // vanished mid-window
			i++
		case prevCg[i] > curCg[j]: // appeared mid-window
			j++
		default:
			d := curCnt[j].Sub(prevCnt[i])
			if d.Instructions > 0 { // idle or wrapped: no CPI defined
				out = append(out, Measurement{
					Cgroup:   curCg[j],
					Start:    s.start,
					Duration: elapsed,
					CPUUsage: d.CPUSeconds / elapsed.Seconds(),
					CPI:      d.CPI(),
					L3MPKI:   d.L3MPKI(),
				})
			}
			i++
			j++
		}
	}
	s.meas = out
	return out
}

// InWindow reports whether the sampler is currently counting, for
// tests and for tools that want to avoid concurrent counter use.
func (s *Sampler) InWindow() bool { return s.inWindow }
