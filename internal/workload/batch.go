package workload

import (
	"math"
	"time"

	"repro/internal/interference"
)

// Steady is the simplest workload: a constant CPU demand with a fixed
// thread count, running until Stop is called. It stands in for the
// long tail of miscellaneous tenants on a machine.
type Steady struct {
	CPU     float64
	Threads int
	stopped bool
}

// Demand implements machine.Workload.
func (s *Steady) Demand(time.Time) (float64, int) { return s.CPU, s.Threads }

// Deliver implements machine.Workload.
func (s *Steady) Deliver(time.Time, float64, time.Duration, interference.Result) {}

// Done implements machine.Workload.
func (s *Steady) Done() bool { return s.stopped }

// Stop makes the workload exit at the next tick.
func (s *Steady) Stop() { s.stopped = true }

// Pulse is a duty-cycled workload: OnCPU demand for OnFor, then OffCPU
// for OffFor, repeating. Bursty batch work (video transcode spurts,
// periodic scans) looks like this, and it is what makes antagonist
// correlation discriminative: the victim's CPI spikes line up with the
// pulses, while steady bystanders accumulate negative correlation in
// the quiet phases.
type Pulse struct {
	OnCPU   float64
	OffCPU  float64
	OnFor   time.Duration
	OffFor  time.Duration
	Threads int
	// Phase offsets the duty cycle, so co-located pulses need not be
	// synchronized.
	Phase time.Duration

	epoch    time.Time
	hasEpoch bool
	stopped  bool
}

// Demand implements machine.Workload.
func (p *Pulse) Demand(now time.Time) (float64, int) {
	if p.stopped {
		return 0, 0
	}
	if !p.hasEpoch {
		p.epoch = now
		p.hasEpoch = true
	}
	cycle := p.OnFor + p.OffFor
	if cycle <= 0 {
		return p.OnCPU, p.Threads
	}
	if (now.Sub(p.epoch)+p.Phase)%cycle < p.OnFor {
		return p.OnCPU, p.Threads
	}
	return p.OffCPU, p.Threads
}

// Deliver implements machine.Workload.
func (p *Pulse) Deliver(time.Time, float64, time.Duration, interference.Result) {}

// Done implements machine.Workload.
func (p *Pulse) Done() bool { return p.stopped }

// Stop makes the workload exit at the next tick.
func (p *Pulse) Stop() { p.stopped = true }

// Batch is a throughput-oriented batch worker: it demands a fixed CPU
// rate and converts the instructions it executes into completed
// transactions at a fixed instructions-per-transaction cost. Because
// transactions are purely instruction-driven, the transaction rate over
// any interval tracks the instruction rate — the Figure 2 relationship
// (r = 0.97). It keeps cumulative totals only: a rate is the
// difference of two reads divided by the time between them.
type Batch struct {
	// CPU is the demanded rate in CPU-sec/sec.
	CPU float64
	// Threads is the runnable thread count while working.
	Threads int
	// InstructionsPerTx converts instructions to transactions
	// (e.g. 50e6 for a medium transaction).
	InstructionsPerTx float64
	// ClockGHz must match the machine's clock so instructions can be
	// derived from granted CPU time and CPI.
	ClockGHz float64
	// TotalTx ends the job after this many transactions (0 = endless).
	TotalTx float64

	completed    float64
	instructions float64
}

// NewBatch returns a Batch with sane defaults filled in.
func NewBatch(cpu float64, threads int, clockGHz float64) *Batch {
	return &Batch{
		CPU:               cpu,
		Threads:           threads,
		InstructionsPerTx: 50e6,
		ClockGHz:          clockGHz,
	}
}

// Demand implements machine.Workload.
func (b *Batch) Demand(time.Time) (float64, int) {
	if b.Done() {
		return 0, 0
	}
	return b.CPU, b.Threads
}

// Deliver implements machine.Workload: granted CPU time at the
// observed CPI yields instructions, which yield transactions.
func (b *Batch) Deliver(_ time.Time, granted float64, dt time.Duration, res interference.Result) {
	cpi := res.CPI
	if cpi <= 0 {
		cpi = 1
	}
	instr := granted * dt.Seconds() * b.ClockGHz * 1e9 / cpi
	b.instructions += instr
	b.completed += instr / b.InstructionsPerTx
}

// Done implements machine.Workload.
func (b *Batch) Done() bool {
	return b.TotalTx > 0 && b.completed >= b.TotalTx
}

// Completed returns the number of transactions finished so far.
func (b *Batch) Completed() float64 { return b.completed }

// Instructions returns the number of instructions executed so far.
func (b *Batch) Instructions() float64 { return b.instructions }

// Progress returns completion in [0,1] (0 for endless jobs).
func (b *Batch) Progress() float64 {
	if b.TotalTx <= 0 {
		return 0
	}
	return math.Min(1, b.completed/b.TotalTx)
}
