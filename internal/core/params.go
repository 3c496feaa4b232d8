// Package core implements CPI², the paper's contribution: building CPI
// specs from fleet-wide samples (spec.go), identifying likely
// antagonists by passive cross-correlation (correlate.go), and acting
// on them with CPU hard-capping (enforce.go). manager.go is the
// per-machine CPI² manager the node agent embeds, the machine's one
// task table. Under one mutex it keeps each task's registration and
// record — CPI and usage history, outlier flags, open episode — the
// spec table it detects anomalies against
// (detect.go), and the caps in force with their journal (enforce.go).
package core

import "time"

// Params collects every tunable of the system with the defaults from
// Table 2 of the paper. Zero-valued fields are replaced by defaults
// via Sanitize, so callers may set only what they want to change.
type Params struct {
	// SamplingDuration is how long each counting window lasts.
	SamplingDuration time.Duration
	// SamplingInterval is the period between counting windows.
	SamplingInterval time.Duration
	// SpecRecomputeInterval is how often CPI specs are recalculated
	// (the paper used 24h, with an hourly goal).
	SpecRecomputeInterval time.Duration
	// AgeWeight is the per-day multiplier applied to historical spec
	// data before merging with fresh data (≈0.9).
	AgeWeight float64
	// MinTasks is the fewest tasks a job needs for CPI management.
	MinTasks int
	// MinSamplesPerTask is the fewest samples per task a spec needs.
	MinSamplesPerTask int64
	// MinCPUUsage is the CPU-sec/sec below which CPI measurements are
	// ignored (filters the self-inflicted bimodal pattern of Case 3).
	MinCPUUsage float64
	// OutlierSigma is the flagging threshold in standard deviations
	// above the spec mean (2σ flags ≈5% of samples).
	OutlierSigma float64
	// ViolationsRequired is how many outlier flags within
	// ViolationWindow make a task anomalous.
	ViolationsRequired int
	// ViolationWindow is the sliding window for outlier flags.
	ViolationWindow time.Duration
	// CorrelationWindow is the look-back window for antagonist
	// correlation analysis.
	CorrelationWindow time.Duration
	// CorrelationThreshold is the minimum antagonist correlation to
	// report (0.35 per the §7 evaluation).
	CorrelationThreshold float64
	// AnalysisRateLimit is the minimum spacing between correlation
	// analyses on one machine (§4.2: at most one per second).
	AnalysisRateLimit time.Duration
	// CapDuration is how long a hard cap stays applied.
	CapDuration time.Duration
	// CapLeaseTTL is the cgroup-layer lease granted on each cap and
	// renewed every manager Tick. If the manager vanishes (agent
	// crash) the machine self-releases the cap within one TTL — the
	// crash-safety bound on stranded caps. Must exceed the tick
	// interval comfortably; it is a backstop, not the expiry mechanism.
	CapLeaseTTL time.Duration
	// BestEffortQuota is the cap (CPU-sec/sec) for best-effort jobs.
	BestEffortQuota float64
	// BatchQuota is the cap (CPU-sec/sec) for other batch jobs.
	BatchQuota float64
	// ReportOnly disables automatic enforcement: CPI² detects and
	// identifies antagonists but only reports incidents, leaving
	// capping to operators (the paper's conservative rollout mode).
	// The zero value — enforcement on — is the library default.
	ReportOnly bool
	// FeedbackThrottling enables the §9 future-work extension: the
	// manager adapts the cap quota per round based on whether the
	// victim recovered.
	FeedbackThrottling bool
	// Identifier selects the antagonist-identification algorithm:
	// IdentifierCorrelation (the paper's §4.2 cross-correlation, the
	// default) or IdentifierPanda (PANDA-style noise-resilient scorer).
	// Unknown names are rejected by NewIdentifier; NewManager panics on
	// them (identifier names come from flags or literals, so a bad one
	// is a configuration bug).
	Identifier string
	// GroupDetection enables the §4.2 future-work extension: when no
	// single suspect reaches the correlation threshold, search for a
	// *group* of suspects whose combined usage explains the victim's
	// CPI (antagonists taking turns), and throttle its throttleable
	// members together.
	GroupDetection bool
}

// DefaultParams returns Table 2's values. Enforcement is on by
// default — callers opt out via ReportOnly.
func DefaultParams() Params {
	return Params{
		SamplingDuration:      10 * time.Second,
		SamplingInterval:      time.Minute,
		SpecRecomputeInterval: 24 * time.Hour,
		AgeWeight:             0.9,
		MinTasks:              5,
		MinSamplesPerTask:     100,
		MinCPUUsage:           0.25,
		OutlierSigma:          2.0,
		ViolationsRequired:    3,
		ViolationWindow:       5 * time.Minute,
		CorrelationWindow:     10 * time.Minute,
		CorrelationThreshold:  0.35,
		AnalysisRateLimit:     time.Second,
		CapDuration:           5 * time.Minute,
		CapLeaseTTL:           time.Minute,
		BestEffortQuota:       0.01,
		BatchQuota:            0.1,
		Identifier:            IdentifierCorrelation,
	}
}

// Sanitize fills zero-valued fields with defaults and returns the
// result.
func (p Params) Sanitize() Params {
	d := DefaultParams()
	if p.SamplingDuration <= 0 {
		p.SamplingDuration = d.SamplingDuration
	}
	if p.SamplingInterval <= 0 {
		p.SamplingInterval = d.SamplingInterval
	}
	if p.SpecRecomputeInterval <= 0 {
		p.SpecRecomputeInterval = d.SpecRecomputeInterval
	}
	if p.AgeWeight <= 0 || p.AgeWeight > 1 {
		p.AgeWeight = d.AgeWeight
	}
	if p.MinTasks <= 0 {
		p.MinTasks = d.MinTasks
	}
	if p.MinSamplesPerTask <= 0 {
		p.MinSamplesPerTask = d.MinSamplesPerTask
	}
	if p.MinCPUUsage <= 0 {
		p.MinCPUUsage = d.MinCPUUsage
	}
	if p.OutlierSigma <= 0 {
		p.OutlierSigma = d.OutlierSigma
	}
	if p.ViolationsRequired <= 0 {
		p.ViolationsRequired = d.ViolationsRequired
	}
	if p.ViolationWindow <= 0 {
		p.ViolationWindow = d.ViolationWindow
	}
	if p.CorrelationWindow <= 0 {
		p.CorrelationWindow = d.CorrelationWindow
	}
	if p.CorrelationThreshold <= 0 {
		p.CorrelationThreshold = d.CorrelationThreshold
	}
	if p.AnalysisRateLimit <= 0 {
		p.AnalysisRateLimit = d.AnalysisRateLimit
	}
	if p.CapDuration <= 0 {
		p.CapDuration = d.CapDuration
	}
	if p.CapLeaseTTL <= 0 {
		p.CapLeaseTTL = d.CapLeaseTTL
	}
	if p.BestEffortQuota <= 0 {
		p.BestEffortQuota = d.BestEffortQuota
	}
	if p.BatchQuota <= 0 {
		p.BatchQuota = d.BatchQuota
	}
	if p.Identifier == "" {
		p.Identifier = d.Identifier
	}
	return p
}

// LookBack is how far back the per-task series the manager correlates
// reach: twice the correlation window (at the defaults, that covers a
// cap's CapDuration too). Span stores keep sample-side spans as long.
func (p Params) LookBack() time.Duration {
	w := p.CorrelationWindow
	if w <= 0 {
		w = DefaultParams().CorrelationWindow
	}
	return 2 * w
}
