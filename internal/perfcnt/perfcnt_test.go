package perfcnt

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// paperConfig is the paper's duty cycle: 10 s of counting once a minute.
var paperConfig = Config{Duration: 10 * time.Second, Interval: time.Minute}

func TestAccumulateAndDerive(t *testing.T) {
	var c Counters
	// 2 CPU-seconds at CPI 2.0 on a 2.6 GHz machine.
	c.Accumulate(2, 2.0, 5, 2.6)
	wantCycles := 2 * 2.6e9
	if !almostEqual(c.Cycles, wantCycles, 1) {
		t.Errorf("Cycles = %v", c.Cycles)
	}
	if !almostEqual(c.CPI(), 2.0, 1e-12) {
		t.Errorf("CPI = %v", c.CPI())
	}
	if !almostEqual(c.L3MPKI(), 5, 1e-9) {
		t.Errorf("L3MPKI = %v", c.L3MPKI())
	}
	if c.CPUSeconds != 2 {
		t.Errorf("CPUSeconds = %v", c.CPUSeconds)
	}
}

func TestAccumulateGuards(t *testing.T) {
	var c Counters
	c.Accumulate(-1, 2, 5, 2.6)
	c.Accumulate(1, 0, 5, 2.6)
	c.Accumulate(1, 2, 5, 0)
	if c.Cycles != 0 || c.Instructions != 0 {
		t.Errorf("guarded accumulate mutated counters: %+v", c)
	}
	if c.CPI() != 0 || c.L3MPKI() != 0 {
		t.Error("zero counters should derive zeros")
	}
}

func TestSub(t *testing.T) {
	var a, b Counters
	a.Accumulate(1, 1.5, 3, 2.0)
	b = a
	b.Accumulate(2, 1.5, 3, 2.0)
	d := b.Sub(a)
	if !almostEqual(d.CPUSeconds, 2, 1e-12) {
		t.Errorf("delta CPUSeconds = %v", d.CPUSeconds)
	}
	if !almostEqual(d.CPI(), 1.5, 1e-12) {
		t.Errorf("delta CPI = %v", d.CPI())
	}
}

func TestCPIAccumulationMixesWindows(t *testing.T) {
	// Two phases at different CPI: cumulative CPI is cycle-weighted.
	var c Counters
	c.Accumulate(1, 1.0, 0, 1.0) // 1e9 cycles, 1e9 instr
	c.Accumulate(1, 4.0, 0, 1.0) // 1e9 cycles, .25e9 instr
	want := 2e9 / 1.25e9
	if !almostEqual(c.CPI(), want, 1e-9) {
		t.Errorf("mixed CPI = %v, want %v", c.CPI(), want)
	}
}

// TestDefaultConfig: the paper's duty cycle, counting for 10 s once a
// minute (§3.1), is defined once, in core.DefaultParams, and reaches the
// sampler unchanged.
func TestDefaultConfig(t *testing.T) {
	p := core.DefaultParams()
	s := NewSampler(Config{Duration: p.SamplingDuration, Interval: p.SamplingInterval})
	if s.cfg != paperConfig {
		t.Errorf("sampler duty cycle = %+v, want %+v", s.cfg, paperConfig)
	}
}

func TestConfigSanitize(t *testing.T) {
	s := NewSampler(Config{Duration: -1, Interval: 0})
	if s.cfg.Duration != 10*time.Second {
		t.Errorf("sanitized duration = %v", s.cfg.Duration)
	}
	if s.cfg.Interval < s.cfg.Duration {
		t.Errorf("interval %v < duration %v", s.cfg.Interval, s.cfg.Duration)
	}
}

// task names a test task by its job, index 0.
func task(job string) model.TaskID { return model.TaskID{Job: model.JobName(job)} }

// reader returns a Snapshot reader over counters. It appends in map
// order, which is random, so every test also exercises the sampler's
// sort.
func reader(counters map[model.TaskID]Counters) func(*Snapshot) {
	return func(s *Snapshot) {
		for k, v := range counters {
			s.Append(k, v)
		}
	}
}

// driveSampler ticks the sampler once per second for total seconds,
// with the given per-second counter update.
func driveSampler(s *Sampler, start time.Time, total int, update func(sec int, m map[model.TaskID]Counters)) []Measurement {
	counters := map[model.TaskID]Counters{}
	read := reader(counters)
	var all []Measurement
	for sec := 0; sec < total; sec++ {
		now := start.Add(time.Duration(sec) * time.Second)
		update(sec, counters)
		all = append(all, s.Tick(now, read)...)
	}
	return all
}

func TestSamplerDutyCycle(t *testing.T) {
	s := NewSampler(paperConfig)
	start := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	ms := driveSampler(s, start, 180, func(sec int, m map[model.TaskID]Counters) {
		c := m[task("task")]
		c.Accumulate(0.5, 2.0, 4, 2.6) // steady 0.5 CPU at CPI 2.0
		m[task("task")] = c
	})
	// 3 minutes → 3 windows, but the last closes at t=190 (unseen), so
	// expect 2 completed measurements at t≈10s and t≈70s... the third
	// window starts at 120 and closes at 130 < 180, so 3 total? Windows:
	// [0,10) closes at tick 10, [60,70) closes at 70, [120,130) at 130.
	if len(ms) != 3 {
		t.Fatalf("measurements = %d, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Task != task("task") {
			t.Errorf("task = %v", m.Task)
		}
		if !almostEqual(m.CPUUsage, 0.5, 1e-9) {
			t.Errorf("usage = %v, want 0.5", m.CPUUsage)
		}
		if !almostEqual(m.CPI, 2.0, 1e-9) {
			t.Errorf("cpi = %v, want 2.0", m.CPI)
		}
		if !almostEqual(m.L3MPKI, 4, 1e-9) {
			t.Errorf("mpki = %v", m.L3MPKI)
		}
		if m.Duration != 10*time.Second {
			t.Errorf("duration = %v", m.Duration)
		}
	}
	// Windows are one per minute.
	if ms[1].Start.Sub(ms[0].Start) != time.Minute {
		t.Errorf("window spacing = %v", ms[1].Start.Sub(ms[0].Start))
	}
}

func TestSamplerSkipsIdleCgroups(t *testing.T) {
	s := NewSampler(paperConfig)
	start := time.Unix(0, 0).UTC()
	ms := driveSampler(s, start, 61, func(sec int, m map[model.TaskID]Counters) {
		busy := m[task("busy")]
		busy.Accumulate(1, 1.5, 2, 2.6)
		m[task("busy")] = busy
		if _, ok := m[task("idle")]; !ok {
			m[task("idle")] = Counters{}
		}
	})
	if len(ms) != 1 || ms[0].Task != task("busy") {
		t.Fatalf("measurements = %+v, want only busy", ms)
	}
}

func TestSamplerSkipsMidWindowArrivals(t *testing.T) {
	s := NewSampler(paperConfig)
	start := time.Unix(0, 0).UTC()
	ms := driveSampler(s, start, 61, func(sec int, m map[model.TaskID]Counters) {
		if sec >= 5 { // appears mid-window
			c := m[task("late")]
			c.Accumulate(1, 1.0, 1, 2.6)
			m[task("late")] = c
		}
	})
	// late appeared during [0,10) so that window skips it; it is
	// present for the whole [60,70) window but that hasn't closed yet.
	if len(ms) != 0 {
		t.Fatalf("measurements = %+v, want none", ms)
	}
}

// TestSamplerDeterministicOrder: measurements come out in the order
// of their tasks' String names, whatever order the reader appends in:
// jobs that share a prefix, contain '-' or '/', and indices whose
// numeric order is not their names' order.
func TestSamplerDeterministicOrder(t *testing.T) {
	want := []model.TaskID{
		{Job: "alpha"}, {Job: "web-x"}, {Job: "web", Index: 10},
		{Job: "web", Index: 9}, {Job: "web/a", Index: 1}, {Job: "zeta"},
	}
	s := NewSampler(paperConfig)
	start := time.Unix(0, 0).UTC()
	ms := driveSampler(s, start, 11, func(sec int, m map[model.TaskID]Counters) {
		for _, id := range want {
			c := m[id]
			c.Accumulate(0.3, 1.2, 2, 2.6)
			m[id] = c
		}
	})
	if len(ms) != len(want) {
		t.Fatalf("got %d measurements", len(ms))
	}
	for i, m := range ms {
		if m.Task != want[i] {
			t.Errorf("measurement %d is of %v, want %v", i, m.Task, want[i])
		}
	}
}

// TestSamplerWindowAllocatesNothing: once its buffers are warm, a
// counting window — two reads, two sorts and the merge — allocates
// nothing.
func TestSamplerWindowAllocatesNothing(t *testing.T) {
	ids := []model.TaskID{{Job: "web", Index: 10}, {Job: "web", Index: 9}, {Job: "logproc"}, {Job: "bigtable", Index: 3}}
	var c Counters
	read := func(s *Snapshot) {
		c.Accumulate(1, 1.5, 2, 2.6)
		for i := len(ids) - 1; i >= 0; i-- { // reversed: the sort has work
			s.Append(ids[i], c)
		}
	}
	s := NewSampler(paperConfig)
	now := time.Unix(0, 0).UTC()
	var n int
	window := func() {
		s.Tick(now, read) // opens
		n = len(s.Tick(now.Add(10*time.Second), read))
		now = now.Add(time.Minute)
	}
	window()
	if n != len(ids) {
		t.Fatalf("a window measured %d tasks, want %d", n, len(ids))
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("a warm window allocates %v times, want 0", allocs)
	}
}

func TestSamplerCoarseTicks(t *testing.T) {
	// Driving the sampler at 30s granularity still yields sane
	// measurements with the actual elapsed window.
	s := NewSampler(paperConfig)
	counters := map[model.TaskID]Counters{}
	read := reader(counters)
	start := time.Unix(0, 0).UTC()
	var all []Measurement
	for sec := 0; sec <= 120; sec += 30 {
		now := start.Add(time.Duration(sec) * time.Second)
		c := counters[task("t")]
		c.Accumulate(30*0.5, 2.0, 3, 2.6)
		counters[task("t")] = c
		all = append(all, s.Tick(now, read)...)
	}
	if len(all) == 0 {
		t.Fatal("no measurements from coarse ticks")
	}
	for _, m := range all {
		if !almostEqual(m.CPUUsage, 0.5, 1e-9) {
			t.Errorf("coarse usage = %v", m.CPUUsage)
		}
		if !almostEqual(m.CPI, 2.0, 1e-9) {
			t.Errorf("coarse cpi = %v", m.CPI)
		}
		if m.Duration < 10*time.Second {
			t.Errorf("duration = %v", m.Duration)
		}
	}
}

// TestSamplerInWindow: the window opens at t=0 and closes at t=10 s,
// and the next opens at t=60 s; Next names each edge.
func TestSamplerInWindow(t *testing.T) {
	s := NewSampler(paperConfig)
	read := func(*Snapshot) {}
	start := time.Unix(0, 0).UTC()
	for _, step := range []struct{ at, next time.Duration }{
		{0, 10 * time.Second},                // in window: it closes at t=10
		{10 * time.Second, 60 * time.Second}, // out of window: the next opens at t=60
		{60 * time.Second, 70 * time.Second}, // in window again
	} {
		s.Tick(start.Add(step.at), read)
		if got := s.Next().Sub(start); got != step.next {
			t.Errorf("after the t=%v tick, Next = t=%v, want t=%v", step.at, got, step.next)
		}
	}
}

func TestCountersDeltaProperty(t *testing.T) {
	// Property: CPI of a delta always sits between the CPIs of the
	// phases that produced it.
	f := func(sec1, sec2 uint8, cpi1Raw, cpi2Raw uint8) bool {
		s1 := float64(sec1)/25 + 0.1
		s2 := float64(sec2)/25 + 0.1
		c1 := float64(cpi1Raw)/50 + 0.2
		c2 := float64(cpi2Raw)/50 + 0.2
		var base Counters
		base.Accumulate(s1, c1, 1, 2.0)
		snap := base
		base.Accumulate(s2, c2, 1, 2.0)
		d := base.Sub(snap)
		got := d.CPI()
		return almostEqual(got, c2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSubWraparound: a counter reset between two reads (PMU wrap,
// machine reboot) makes the current cumulative values smaller than the
// snapshot. Sub must report the negative deltas honestly — it is the
// derived rates that must degrade to zero instead of emitting garbage.
func TestSubWraparound(t *testing.T) {
	var before, after Counters
	before.Accumulate(10, 2.0, 5, 2.6)
	after.Accumulate(1, 2.0, 5, 2.6) // counters reset, then 1s of work
	d := after.Sub(before)
	if d.Cycles >= 0 || d.Instructions >= 0 || d.CPUSeconds >= 0 || d.L3Misses >= 0 {
		t.Fatalf("wraparound delta should be negative across the board: %+v", d)
	}
	if d.CPI() != 0 {
		t.Errorf("CPI of a negative-instruction delta = %v, want 0", d.CPI())
	}
	if d.L3MPKI() != 0 {
		t.Errorf("L3MPKI of a negative-instruction delta = %v, want 0", d.L3MPKI())
	}
}

// TestZeroInstructionWindow: a window in which nothing retired (idle
// cgroup, halted CPU) has no defined CPI. The derivations must return
// exactly 0 — never NaN or Inf from the 0/0 and x/0 divisions.
func TestZeroInstructionWindow(t *testing.T) {
	for _, d := range []Counters{
		{},                // all-zero window
		{Cycles: 1e9},     // cycles but nothing retired
		{L3Misses: 12345}, // misses attributed with nothing retired
	} {
		if got := d.CPI(); got != 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("CPI(%+v) = %v, want 0", d, got)
		}
		if got := d.L3MPKI(); got != 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("L3MPKI(%+v) = %v, want 0", d, got)
		}
	}
}

// TestNegativeCycleDelta: cycles wrapped but instructions did not (the
// counters wrap independently in real PMUs). The resulting CPI is
// negative — defined, finite, and exactly what the egress sample
// validator quarantines as negative_cpi. This pins the division-layer
// contract the validator relies on: garbage in, finite garbage out.
func TestNegativeCycleDelta(t *testing.T) {
	d := Counters{Cycles: -1e9, Instructions: 1e8}
	got := d.CPI()
	if got >= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("CPI = %v, want finite negative", got)
	}
}

// TestSamplerSkipsWrappedAndIdleWindows: the sampler must drop a
// window whose counters went backwards (wrap/reset) or retired nothing,
// rather than emit a poisoned Measurement.
func TestSamplerSkipsWrappedAndIdleWindows(t *testing.T) {
	s := NewSampler(Config{Duration: 2 * time.Second, Interval: 4 * time.Second})
	base := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	big := map[model.TaskID]Counters{task("a"): {Cycles: 1e12, Instructions: 1e11, CPUSeconds: 100}}
	small := map[model.TaskID]Counters{task("a"): {Cycles: 1e9, Instructions: 1e8, CPUSeconds: 1}}

	if ms := s.Tick(base, reader(big)); len(ms) != 0 {
		t.Fatalf("window open emitted %v", ms)
	}
	// Counters went backwards across the window: wrapped, skip.
	if ms := s.Tick(base.Add(2*time.Second), reader(small)); len(ms) != 0 {
		t.Fatalf("wrapped window emitted %v", ms)
	}
	// Next window: no progress at all (idle) — also skipped.
	if ms := s.Tick(base.Add(4*time.Second), reader(small)); len(ms) != 0 {
		t.Fatalf("window open emitted %v", ms)
	}
	if ms := s.Tick(base.Add(6*time.Second), reader(small)); len(ms) != 0 {
		t.Fatalf("idle window emitted %v", ms)
	}
	// Sanity: a healthy window still measures.
	bigger := map[model.TaskID]Counters{task("a"): {Cycles: 2e9, Instructions: 1.5e8, CPUSeconds: 2}}
	if ms := s.Tick(base.Add(8*time.Second), reader(small)); len(ms) != 0 {
		t.Fatalf("window open emitted %v", ms)
	}
	ms := s.Tick(base.Add(10*time.Second), reader(bigger))
	if len(ms) != 1 || ms[0].CPI <= 0 {
		t.Fatalf("healthy window: %v", ms)
	}
}
