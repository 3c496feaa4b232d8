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

// BaseOn returns a task's uncontended CPI on platform pl: the
// profile's base there times the task's skew (a skew ≤ 0 means 1). A
// machine resolves it once, when the task is placed, and hands it to
// every evaluation in Load.Base. A nil profile has base 0.
func (p *Profile) BaseOn(pl model.Platform, skew float64) float64 {
	if p == nil {
		return 0
	}
	base := p.baseCPIOn(pl)
	if skew > 0 {
		base *= skew
	}
	return base
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
	// Base is the task's uncontended CPI on this machine, skew included
	// (Profile.BaseOn, resolved at placement). 0 means the profile's
	// unskewed base on the machine's platform.
	Base float64
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

// DayPhase returns the shape of the instruction-mix drift at time t:
// a sinusoid of the hour of day in t's location with period 24h,
// peaking (+1) at 18:00 and bottoming (−1) at 06:00. It depends on t
// alone, so a fleet stepping every machine to one instant computes it
// once for all of them (see machine.TickAt).
func DayPhase(t time.Time) float64 {
	h, mi, _ := t.Clock()
	hour := float64(h) + float64(mi)/60
	return math.Sin((hour - 12) / 24 * 2 * math.Pi)
}

// diurnalFactor returns the instruction-mix CPI multiplier of
// amplitude amp at day phase phase (see DayPhase).
func diurnalFactor(phase, amp float64) float64 {
	if amp == 0 {
		return 1
	}
	return 1 + amp*phase
}

// noiseXi is the GEV shape of the measurement noise. ξ < 0 keeps the
// right tail finite; with the scale set per profile (NoiseSigma) the
// resulting CPI histogram matches Figure 7's fitted shape.
const noiseXi = -0.05

// noiseFactor draws the unit-mean right-skewed multiplicative noise:
// one rng.Float64() per call, mapped through noiseQuantile.
func noiseFactor(rng *rand.Rand, sigma float64) float64 {
	if sigma == 0 || rng == nil {
		return 1
	}
	// Standard GEV with ξ=−0.05 has mean ≈ µ + 0.6σg; center it at 1.
	g := noiseQuantile(rng.Float64())
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
	return gevOfLn(-math.Log(p), xi)
}

// gevOfLn is the standard GEV quantile at ln = −log p.
func gevOfLn(ln, xi float64) float64 {
	if math.Abs(xi) < 1e-12 {
		return -math.Log(ln)
	}
	// ln^(−ξ) as exp(−ξ·log ln). For 0 < −ξ < 1/2, math.Pow(ln, −ξ)
	// computes exactly this and returns it through Ldexp(·, 0) (its
	// own assembly on s390x aside), so the quantile is bit-identical to
	// the Pow form without Pow's special cases, Modf, Frexp and Ldexp;
	// TestGEVQuantileMatchesPow pins the equality.
	return (math.Exp(-xi*math.Log(ln)) - 1) / xi
}

// The noise quantile is tabulated: two Log calls and an Exp per task
// per tick were the largest cost of a machine tick. noiseTab[0] holds
// gevQuantile(x, noiseXi) and noiseTab[1] holds gevQuantile(1−x,
// noiseXi), the latter from Log1p(−x) so the right tail keeps its
// precision. Both are indexed by x's exponent and top noiseCellBits
// mantissa bits: each of the noiseOctaves octaves [2^−(k+1), 2^−k) of x,
// k = 1…noiseOctaves, is cut into 2^noiseCellBits equal cells, and node
// n sits at the float whose bits are (noiseBase+n) << noiseShift, so a
// cell's right node is the next cell's left one and the last node of an
// octave is the first of the next. The final extra node serves x = ½.
const (
	noiseCellBits = 8
	noiseOctaves  = 53
	noiseShift    = 52 - noiseCellBits
	noiseNodes    = noiseOctaves<<noiseCellBits + 2
	// noiseMin = 2^−(noiseOctaves+1) is the bottom of the last octave;
	// below it noiseQuantile calls gevQuantile exactly.
	noiseMin = 1.0 / (1 << (noiseOctaves + 1))
	// noiseBase is noiseMin's bits >> noiseShift (exponent bias 1023).
	noiseBase = (1023 - (noiseOctaves + 1)) << noiseCellBits
)

var noiseTab [2][noiseNodes]float64

func init() {
	for n := range noiseTab[0] {
		x := math.Float64frombits(uint64(noiseBase+n) << noiseShift)
		noiseTab[0][n] = gevOfLn(-math.Log(x), noiseXi)
		noiseTab[1][n] = gevOfLn(-math.Log1p(-x), noiseXi)
	}
}

// noiseQuantile is gevQuantile(p, noiseXi) interpolated linearly
// within a cell of noiseTab: p < ½ is looked up by p, p ≥ ½ by 1 − p,
// which is exact there (Sterbenz). Its absolute error is under 2e-6
// (TestGEVNoiseTableAccuracy); below noiseMin, and at p = 1, it is
// gevQuantile itself.
func noiseQuantile(p float64) float64 {
	tab, x := &noiseTab[0], p
	if p >= 0.5 {
		tab, x = &noiseTab[1], 1-p
	}
	if !(x >= noiseMin) {
		return gevQuantile(p, noiseXi)
	}
	b := math.Float64bits(x)
	n := b>>noiseShift - noiseBase
	f := float64(b&(1<<noiseShift-1)) * (1.0 / (1 << noiseShift))
	lo := tab[n]
	return lo + f*(tab[n+1]-lo)
}

// Evaluate computes the microarchitectural result for the task at
// index self among loads at wall time t. rng supplies measurement
// noise and may be nil for deterministic output.
func (m Machine) Evaluate(loads []Load, self int, t time.Time, rng *rand.Rand) Result {
	return m.evaluate(loads, self, DayPhase(t), rng)
}

// EvaluateAll computes the result of every task in loads at day phase
// phase (DayPhase of the evaluation time) into out[:len(loads)], which
// must be at least that long. The results and the draws from rng are
// those of calling Evaluate for self = 0, 1, … in turn.
func (m Machine) EvaluateAll(loads []Load, phase float64, rng *rand.Rand, out []Result) {
	for i := range loads {
		out[i] = m.evaluate(loads, i, phase, rng)
	}
}

// evaluate is Evaluate at day phase phase (see DayPhase).
func (m Machine) evaluate(loads []Load, self int, phase float64, rng *rand.Rand) Result {
	l := loads[self]
	if l.Profile == nil {
		return Result{CPI: 1, L3MPKI: 0}
	}
	pressure := m.PressureOn(loads, self)
	base := l.Base
	if base == 0 {
		base = l.Profile.baseCPIOn(m.Platform)
	}
	cpi := base *
		(1 + l.Profile.Sensitivity*pressure) *
		diurnalFactor(phase, l.Profile.DiurnalAmplitude) *
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
