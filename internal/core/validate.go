package core

import (
	"math"
	"sync"
	"time"

	"repro/internal/model"
)

// Validator defaults. CPI and usage bounds are deliberately loose —
// the validator exists to stop garbage (wrapped counters, NaN from a
// zero-instruction window, corrupted frames), not to second-guess
// legitimate extreme measurements, which the detector's statistics
// handle.
const (
	// DefaultMaxCPI is the largest plausible cycles-per-instruction: a
	// real workload stalling on every access stays well under this;
	// values beyond it are counter garbage.
	DefaultMaxCPI = 1e3
	// DefaultMaxUsage is the largest plausible per-task CPU rate
	// (CPU-sec/sec) — far above any machine's core count.
	DefaultMaxUsage = 1024
	// DefaultMaxFutureSkew bounds how far in the future a sample
	// timestamp may be. Tight: nothing legitimate is post-dated.
	DefaultMaxFutureSkew = time.Minute
	// DefaultMaxSampleAge bounds how old a sample may be. Loose:
	// spool replay after a pipeline blackout legitimately delivers
	// many-minutes-old samples, and those must not be quarantined.
	DefaultMaxSampleAge = time.Hour
)

// QuarantinedSample is one rejected sample held for inspection.
type QuarantinedSample struct {
	Sample model.Sample `json:"sample"`
	Reason string       `json:"reason"`
	Source string       `json:"source,omitempty"`
	Time   time.Time    `json:"time"`
}

// Quarantine is a counted ring buffer of rejected samples, exposed on
// the admin server so "why is the quarantine counter climbing?" is
// answerable without a debugger. Safe for concurrent use.
type Quarantine struct {
	mu    sync.Mutex
	ring  []QuarantinedSample
	next  int
	total int64
}

// NewQuarantine returns a quarantine keeping the most recent capacity
// rejects (minimum 1).
func NewQuarantine(capacity int) *Quarantine {
	if capacity < 1 {
		capacity = 1
	}
	return &Quarantine{ring: make([]QuarantinedSample, 0, capacity)}
}

// Add records one rejected sample.
func (q *Quarantine) Add(qs QuarantinedSample) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	if len(q.ring) < cap(q.ring) {
		q.ring = append(q.ring, qs)
		return
	}
	q.ring[q.next] = qs
	q.next = (q.next + 1) % cap(q.ring)
}

// Total returns the number of samples ever quarantined.
func (q *Quarantine) Total() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Recent returns up to n retained rejects, oldest first.
func (q *Quarantine) Recent(n int) []QuarantinedSample {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n <= 0 || n > len(q.ring) {
		n = len(q.ring)
	}
	out := make([]QuarantinedSample, 0, n)
	// Oldest retained entry sits at q.next once the ring has wrapped.
	start := 0
	if len(q.ring) == cap(q.ring) {
		start = q.next
	}
	for i := len(q.ring) - n; i < len(q.ring); i++ {
		out = append(out, q.ring[(start+i)%len(q.ring)])
	}
	return out
}

// SampleValidator rejects structurally invalid or physically absurd
// samples before they can poison specs or detection state: NaN/Inf
// from zero-instruction windows, negatives from counter wraparound,
// absurd magnitudes from corrupted frames, and (when a clock is
// provided) timestamps too far from now. It runs at agent egress AND
// aggregator ingress — defense in depth, the wire is untrusted.
//
// Configure fields before first use; Check/Admit are then safe for
// concurrent use.
type SampleValidator struct {
	MaxCPI   float64
	MaxUsage float64
	// Now supplies the reference clock for timestamp checks; nil
	// disables them (a process whose clock runs at simulation speed —
	// cpi2agent with -speed — cannot meaningfully bound skew).
	Now           func() time.Time
	MaxFutureSkew time.Duration
	MaxSampleAge  time.Duration
	// Source labels quarantined samples ("agent", "aggregator").
	Source string

	// Quarantine receives rejects from Admit/Filter; nil means rejects
	// are counted but not retained.
	Quarantine *Quarantine
	// Metrics counts rejects by reason (SamplesQuarantined); nil-safe.
	Metrics *Metrics
}

// NewSampleValidator returns a validator with default bounds, no
// clock, and a quarantine of the given capacity.
func NewSampleValidator(source string, quarantineCap int) *SampleValidator {
	return &SampleValidator{
		MaxCPI:        DefaultMaxCPI,
		MaxUsage:      DefaultMaxUsage,
		MaxFutureSkew: DefaultMaxFutureSkew,
		MaxSampleAge:  DefaultMaxSampleAge,
		Source:        source,
		Quarantine:    NewQuarantine(quarantineCap),
	}
}

// Check classifies a sample, returning "" when it is acceptable or a
// stable reason label otherwise. Pure: no quarantine, no metrics.
func (v *SampleValidator) Check(s model.Sample) string { return v.check(&s) }

// check is Check without the 128-byte copy; it only reads s.
func (v *SampleValidator) check(s *model.Sample) string {
	if s.Job == "" || s.Platform == "" {
		return "missing_field"
	}
	if s.Timestamp.IsZero() {
		return "zero_timestamp"
	}
	if math.IsNaN(s.CPI) || math.IsInf(s.CPI, 0) {
		return "non_finite_cpi"
	}
	if s.CPI < 0 {
		return "negative_cpi"
	}
	maxCPI := v.MaxCPI
	if maxCPI <= 0 {
		maxCPI = DefaultMaxCPI
	}
	if s.CPI > maxCPI {
		return "absurd_cpi"
	}
	if math.IsNaN(s.CPUUsage) || math.IsInf(s.CPUUsage, 0) {
		return "non_finite_usage"
	}
	if s.CPUUsage < 0 {
		return "negative_usage"
	}
	maxUsage := v.MaxUsage
	if maxUsage <= 0 {
		maxUsage = DefaultMaxUsage
	}
	if s.CPUUsage > maxUsage {
		return "absurd_usage"
	}
	if v.Now != nil {
		now := v.Now()
		future := v.MaxFutureSkew
		if future <= 0 {
			future = DefaultMaxFutureSkew
		}
		age := v.MaxSampleAge
		if age <= 0 {
			age = DefaultMaxSampleAge
		}
		// Asymmetric bounds: post-dated samples are always wrong, but
		// old samples may be legitimate spool replay after a blackout.
		if s.Timestamp.After(now.Add(future)) {
			return "future_timestamp"
		}
		if s.Timestamp.Before(now.Add(-age)) {
			return "stale_timestamp"
		}
	}
	return ""
}

// Admit checks a sample, quarantining (a copy) and counting it on
// rejection. It reports whether the sample may proceed; s is only read.
func (v *SampleValidator) Admit(s *model.Sample) bool {
	reason := v.check(s)
	if reason == "" {
		return true
	}
	if v.Metrics != nil {
		v.Metrics.SamplesQuarantined.With(reason).Inc()
	}
	if v.Quarantine != nil {
		at := s.Timestamp
		if v.Now != nil {
			at = v.Now()
		}
		v.Quarantine.Add(QuarantinedSample{
			Sample: *s, Reason: reason, Source: v.Source, Time: at,
		})
	}
	return false
}

// Filter admits a batch in place, returning the surviving prefix.
// The input slice is reused; callers must not retain it.
func (v *SampleValidator) Filter(in []model.Sample) []model.Sample {
	out := in[:0]
	for i := range in {
		if v.Admit(&in[i]) {
			out = append(out, in[i])
		}
	}
	return out
}
