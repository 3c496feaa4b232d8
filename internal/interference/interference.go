// Package interference models contention for shared processor
// resources — last-level cache and memory bandwidth — among tasks
// co-located on a machine. It is the simulated stand-in for the real
// microarchitectural interference the paper measures with hardware
// counters, and it is deliberately built so that the phenomena CPI²
// depends on emerge rather than being injected:
//
//   - A task's CPI rises with the cache/memory pressure exerted by its
//     co-runners in proportion to the task's sensitivity, so a victim's
//     CPI tracks an antagonist's CPU usage (Figures 8–9).
//   - L3 misses per instruction rise with the same pressure term, so
//     relative L3 MPI correlates with relative CPI (Figure 15c, r≈0.87).
//   - Base CPI differs per platform (Figure 4's two clusters) and
//     drifts diurnally with the instruction mix (Figure 5, CV ≈ 4%).
//   - Measurement noise is right-skewed GEV, matching the shape of the
//     measured CPI distribution (Figure 7).
//   - Pressure depends on footprint × CPU usage of co-runners, not on
//     machine utilization itself, reproducing §7.1's finding that
//     antagonism is uncorrelated with machine load.
package interference

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/model"
)

// Profile describes a task's microarchitectural character. Tasks of
// the same job share a profile (they run the same binary).
type Profile struct {
	// BaseCPI is the task's uncontended CPI per platform. Platforms
	// not present fall back to DefaultCPI.
	BaseCPI map[model.Platform]float64
	// DefaultCPI is used for platforms missing from BaseCPI.
	DefaultCPI float64
	// CacheFootprint is the working-set size in MB that the task drags
	// through the shared cache per unit of CPU usage.
	CacheFootprint float64
	// MemBandwidth is the memory traffic in GB/s generated per unit of
	// CPU usage.
	MemBandwidth float64
	// Sensitivity scales how much shared-resource pressure inflates
	// this task's CPI: cpi = base·(1 + Sensitivity·pressure).
	// Cache-resident, compute-bound tasks have low sensitivity;
	// data-dependent latency-sensitive servers have high sensitivity.
	Sensitivity float64
	// BaseL3MPKI is the task's uncontended L3 misses per
	// kilo-instruction.
	BaseL3MPKI float64
	// DiurnalAmplitude is the fractional peak-to-mean CPI swing over a
	// day caused by instruction-mix drift (0.04 reproduces Figure 5).
	DiurnalAmplitude float64
	// NoiseSigma is the scale of multiplicative GEV measurement noise
	// relative to the mean (0 disables noise).
	NoiseSigma float64
	// LowUsageInflation models applications whose CPI rises when they
	// go nearly idle (cold caches, poor branch prediction between
	// bursts): below LowUsageThreshold CPU-sec/sec the CPI is inflated
	// by up to this factor. This is the self-inflicted pattern behind
	// the paper's Case 3 false alarm, which the MinCPUUsage filter
	// exists to suppress.
	LowUsageInflation float64
	// LowUsageThreshold is the usage below which LowUsageInflation
	// applies (0 disables the effect).
	LowUsageThreshold float64
	// TaskSkewSigma is the relative spread of per-task base CPI within
	// a job: tasks run the same binary but process different data, so
	// their CPIs are similar, not identical (Table 1's per-job
	// stddevs). The machine draws one multiplicative skew per task at
	// placement time.
	TaskSkewSigma float64
}

// baseCPIOn returns the uncontended CPI on a platform.
func (p *Profile) baseCPIOn(pl model.Platform) float64 {
	if c, ok := p.BaseCPI[pl]; ok {
		return c
	}
	if p.DefaultCPI > 0 {
		return p.DefaultCPI
	}
	return 1.0
}

// Machine describes the shared resources of one machine.
type Machine struct {
	// Platform is the machine's CPU type.
	Platform model.Platform
	// CacheMB is the last-level cache capacity in MB (per socket when
	// Sockets > 1 — each socket has its own LLC).
	CacheMB float64
	// MemBWGBs is the memory bandwidth capacity in GB/s (per socket
	// when Sockets > 1 — local memory controllers).
	MemBWGBs float64
	// ClockGHz is the CPU clock rate, used to convert CPU-seconds to
	// cycles and hence (with CPI) to instructions.
	ClockGHz float64
	// Sockets is the number of NUMA domains (0 or 1 = a single shared
	// domain). Tasks on different sockets share neither the LLC nor
	// the local memory controller, so they exert no modelled pressure
	// on one another — which is why a correctly NUMA-pinned fleet sees
	// less interference, and why CPI²'s correlation must not blame a
	// busy task on the other socket.
	Sockets int
}

// DefaultMachine returns a machine model typical of the simulated
// fleet for the given platform.
func DefaultMachine(pl model.Platform) Machine {
	switch pl {
	case model.PlatformB:
		return Machine{Platform: pl, CacheMB: 16, MemBWGBs: 40, ClockGHz: 2.1}
	default:
		return Machine{Platform: pl, CacheMB: 12, MemBWGBs: 32, ClockGHz: 2.6}
	}
}

// Load is one co-located task's instantaneous state: its profile and
// its CPU usage in CPU-sec/sec over the current interval.
type Load struct {
	Profile *Profile
	Usage   float64
	// Skew is the task's fixed base-CPI multiplier (0 means 1.0); see
	// Profile.TaskSkewSigma.
	Skew float64
	// Socket is the NUMA domain the task runs in (ignored unless the
	// machine has Sockets > 1).
	Socket int
}

// DrawSkew samples a task's CPI skew at placement time from the
// profile's TaskSkewSigma (clamped to stay positive).
func (p *Profile) DrawSkew(rng *rand.Rand) float64 {
	if p == nil || p.TaskSkewSigma <= 0 || rng == nil {
		return 1
	}
	s := 1 + p.TaskSkewSigma*rng.NormFloat64()
	if s < 0.5 {
		s = 0.5
	}
	return s
}

// Result is the modelled microarchitectural outcome for one task over
// an interval.
type Result struct {
	// CPI is the effective cycles-per-instruction including
	// interference, diurnal drift and noise.
	CPI float64
	// L3MPKI is the effective L3 misses per kilo-instruction.
	L3MPKI float64
	// Pressure is the shared-resource pressure this task experienced
	// (dimensionless, ≥ 0).
	Pressure float64
}

// PressureOn returns the shared-resource pressure experienced by the
// task at index self given all co-located loads: the cache and
// memory-bandwidth demand of *other* tasks, each normalized by the
// machine's capacity. A task does not pressure itself — its own
// footprint is part of its base CPI.
func (m Machine) PressureOn(loads []Load, self int) float64 {
	var cacheDemand, bwDemand float64
	for i, l := range loads {
		if i == self || l.Profile == nil || l.Usage <= 0 {
			continue
		}
		if m.Sockets > 1 && l.Socket != loads[self].Socket {
			continue // different NUMA domain: no shared cache or bus
		}
		cacheDemand += l.Profile.CacheFootprint * l.Usage
		bwDemand += l.Profile.MemBandwidth * l.Usage
	}
	var pressure float64
	if m.CacheMB > 0 {
		pressure += cacheDemand / m.CacheMB
	}
	if m.MemBWGBs > 0 {
		pressure += bwDemand / m.MemBWGBs
	}
	return pressure
}

// diurnalFactor returns the instruction-mix CPI multiplier at time t:
// a sinusoid with period 24h peaking at 18:00, amplitude amp.
func diurnalFactor(t time.Time, amp float64) float64 {
	if amp == 0 {
		return 1
	}
	hour := float64(t.Hour()) + float64(t.Minute())/60
	// Peak at 18:00, trough at 06:00.
	return 1 + amp*math.Sin((hour-12)/24*2*math.Pi)
}

// noiseGEV is the unit-mean right-skewed multiplicative noise family.
// ξ < 0 keeps the right tail finite; parameters are chosen so the
// resulting CPI histogram matches Figure 7's fitted shape.
func noiseFactor(rng *rand.Rand, sigma float64) float64 {
	if sigma == 0 || rng == nil {
		return 1
	}
	// Standard GEV with ξ=−0.05 has mean ≈ µ + 0.6σg; center it at 1.
	const xi = -0.05
	g := gevQuantile(rng.Float64(), xi)
	return 1 + sigma*(g-0.577) // subtract ≈Euler–Mascheroni to zero the mean
}

// gevQuantile returns the standard (µ=0, σ=1) GEV quantile.
func gevQuantile(p, xi float64) float64 {
	if p <= 0 {
		p = 1e-16
	}
	if p >= 1 {
		p = 1 - 1e-16
	}
	ln := -math.Log(p)
	if math.Abs(xi) < 1e-12 {
		return -math.Log(ln)
	}
	return (math.Pow(ln, -xi) - 1) / xi
}

// Evaluate computes the microarchitectural result for the task at
// index self among loads at wall time t. rng supplies measurement
// noise and may be nil for deterministic output.
func (m Machine) Evaluate(loads []Load, self int, t time.Time, rng *rand.Rand) Result {
	l := loads[self]
	if l.Profile == nil {
		return Result{CPI: 1, L3MPKI: 0}
	}
	pressure := m.PressureOn(loads, self)
	base := l.Profile.baseCPIOn(m.Platform)
	if l.Skew > 0 {
		base *= l.Skew
	}
	cpi := base *
		(1 + l.Profile.Sensitivity*pressure) *
		diurnalFactor(t, l.Profile.DiurnalAmplitude) *
		noiseFactor(rng, l.Profile.NoiseSigma)
	if th := l.Profile.LowUsageThreshold; th > 0 && l.Usage < th {
		cpi *= 1 + l.Profile.LowUsageInflation*(1-l.Usage/th)
	}
	if cpi < 0.1 {
		cpi = 0.1 // physical floor: no realistic workload sustains CPI < 0.1
	}
	mpki := l.Profile.BaseL3MPKI * (1 + l.Profile.Sensitivity*pressure)
	return Result{CPI: cpi, L3MPKI: mpki, Pressure: pressure}
}
