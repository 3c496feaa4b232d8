package core

import (
	"time"

	"repro/internal/obs"
)

// EventSink receives structured forensics events (incidents, cap
// lifecycle). obs.EventLog implements it; nil sinks are never stored —
// components keep a no-op default instead.
type EventSink interface {
	Emit(now time.Time, typ string, data any)
}

// nopSink is the default event sink.
type nopSink struct{}

func (nopSink) Emit(time.Time, string, any) {}

// Metrics bundles every core-layer metric. All fields are nil-safe
// obs handles, so a zero Metrics disables instrumentation without any
// call-site branches. Build one per registry with NewMetrics; because
// obs registration is idempotent, every NewMetrics call against the
// same registry returns handles to the same underlying series (so a
// cluster of simulated managers aggregates into one set of counters).
// A metric is declared here and registered in NewMetrics, nowhere else:
// the cluster's per-machine copies are derived from this struct by
// obs.Stage.
type Metrics struct {
	// Detection.
	SamplesObserved *obs.Counter // cpi2_samples_observed_total
	SamplesFiltered *obs.Counter // cpi2_samples_filtered_total
	Outliers        *obs.Counter // cpi2_outliers_total
	Anomalies       *obs.Counter // cpi2_anomalies_total

	// Antagonist identification.
	AnalysesRun         *obs.Counter    // cpi2_analyses_total
	AnalysesRateLimited *obs.Counter    // cpi2_analyses_rate_limited_total
	CorrelationSeconds  *obs.Histogram  // cpi2_correlation_seconds
	GroupDetections     *obs.Counter    // cpi2_group_detections_total
	Incidents           *obs.CounterVec // cpi2_incidents_total{action}

	// Enforcement.
	CapsApplied  *obs.Counter // cpi2_caps_applied_total
	CapsExpired  *obs.Counter // cpi2_caps_expired_total
	CapsReleased *obs.Counter // cpi2_caps_released_total
	CapsActive   *obs.Gauge   // cpi2_caps_active

	// Restart reconciliation (cap journal replay).
	CapsAdopted  *obs.Counter // cpi2_caps_readopted_total
	CapsOrphaned *obs.Counter // cpi2_caps_orphaned_total

	// Input integrity.
	SamplesQuarantined *obs.CounterVec // cpi2_samples_quarantined_total{reason}

	// Spec aggregation. SpecBacklog is Set, so only the spec builder —
	// which writes the registered set, never a staged copy — may touch it.
	SpecsComputed *obs.Counter // cpi2_specs_computed_total
	SpecBacklog   *obs.Gauge   // cpi2_spec_backlog_samples

	// Reaction-time SLIs (simulation/decision-time durations, so they
	// stay deterministic under the cluster's fingerprint tests).
	// SpecStaleness merges every job: a {job} label is unbounded, and one
	// job's spec age is read from /debug/specs (UpdatedAt) instead.
	SampleToSpec  *obs.Histogram // cpi2_sample_to_spec_seconds
	SpecStaleness *obs.Histogram // cpi2_spec_staleness_seconds
	DetectToCap   *obs.Histogram // cpi2_detect_to_cap_seconds
}

// NewMetrics registers (or fetches) the core metric set on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		SamplesObserved: r.Counter("cpi2_samples_observed_total",
			"CPI samples ingested by the per-machine manager"),
		SamplesFiltered: r.Counter("cpi2_samples_filtered_total",
			"samples ignored for near-zero CPU usage (Case 3 filter)"),
		Outliers: r.Counter("cpi2_outliers_total",
			"samples above the spec's outlier threshold"),
		Anomalies: r.Counter("cpi2_anomalies_total",
			"tasks confirmed anomalous (3 outliers in 5 minutes)"),
		AnalysesRun: r.Counter("cpi2_analyses_total",
			"antagonist-identification analyses executed"),
		AnalysesRateLimited: r.Counter("cpi2_analyses_rate_limited_total",
			"analyses suppressed by the per-machine rate limit"),
		CorrelationSeconds: r.Histogram("cpi2_correlation_seconds",
			"wall-clock latency of one correlation analysis", obs.LatencyBuckets),
		GroupDetections: r.Counter("cpi2_group_detections_total",
			"incidents where an antagonist group was identified"),
		Incidents: r.CounterVec("cpi2_incidents_total",
			"incidents recorded, by enforcement outcome", "action"),
		CapsApplied: r.Counter("cpi2_caps_applied_total",
			"hard caps applied to antagonists"),
		CapsExpired: r.Counter("cpi2_caps_expired_total",
			"hard caps expired after CapDuration"),
		CapsReleased: r.Counter("cpi2_caps_released_total",
			"hard caps released early (operator release-all)"),
		CapsActive: r.Gauge("cpi2_caps_active",
			"hard caps currently in force"),
		CapsAdopted: r.Counter("cpi2_caps_readopted_total",
			"caps re-adopted from the journal after an agent restart"),
		CapsOrphaned: r.Counter("cpi2_caps_orphaned_total",
			"journalled caps released as orphans during reconciliation"),
		SamplesQuarantined: r.CounterVec("cpi2_samples_quarantined_total",
			"samples rejected by the validator, by reason", "reason"),
		SpecsComputed: r.Counter("cpi2_specs_computed_total",
			"robust CPI specs produced by recomputations"),
		SpecBacklog: r.Gauge("cpi2_spec_backlog_samples",
			"samples accumulated since the last spec recompute"),
		SampleToSpec: r.Histogram("cpi2_sample_to_spec_seconds",
			"age of the oldest pending sample folded into a spec recompute",
			obs.StalenessBuckets),
		SpecStaleness: r.Histogram("cpi2_spec_staleness_seconds",
			"age of the installed spec each time it judges a sample",
			obs.StalenessBuckets),
		DetectToCap: r.Histogram("cpi2_detect_to_cap_seconds",
			"latency from a task's first outlier to a cap decision",
			obs.ReactionBuckets),
	}
}

// SuspectRecord is the JSON rendering of one ranked suspect.
type SuspectRecord struct {
	Task        string  `json:"task"`
	Job         string  `json:"job"`
	Correlation float64 `json:"correlation"`
}

// IncidentRecord is the machine-readable rendering of an Incident:
// the schema of the forensics event stream ("incident" events) and of
// the admin /debug/incidents endpoint.
type IncidentRecord struct {
	Time             time.Time       `json:"time"`
	Machine          string          `json:"machine"`
	Victim           string          `json:"victim"`
	VictimJob        string          `json:"victim_job"`
	VictimCPI        float64         `json:"victim_cpi"`
	Threshold        float64         `json:"threshold"`
	Action           string          `json:"action"`
	Target           string          `json:"target,omitempty"`
	Quota            float64         `json:"quota,omitempty"`
	Until            *time.Time      `json:"until,omitempty"`
	Reason           string          `json:"reason,omitempty"`
	TopSuspects      []SuspectRecord `json:"top_suspects,omitempty"`
	GroupSize        int             `json:"group_size,omitempty"`
	GroupCorrelation float64         `json:"group_correlation,omitempty"`
	TraceID          string          `json:"trace_id,omitempty"`
	Identifier       string          `json:"identifier,omitempty"`
}

// maxRecordSuspects bounds the suspects carried in one record (the §6
// case studies list the top five).
const maxRecordSuspects = 5

// Record converts an Incident to its JSON-friendly form.
func (inc Incident) Record() IncidentRecord {
	rec := IncidentRecord{
		Time:       inc.Time,
		Machine:    inc.Machine,
		Victim:     inc.Victim.String(),
		VictimJob:  string(inc.VictimJob),
		VictimCPI:  inc.VictimCPI,
		Threshold:  inc.Threshold,
		Action:     inc.Decision.Action.String(),
		Reason:     inc.Decision.Reason,
		TraceID:    inc.TraceID,
		Identifier: inc.Identifier,
	}
	if inc.Decision.Action != ActionNone {
		rec.Target = inc.Decision.Target.String()
	}
	if inc.Decision.Action == ActionCap {
		rec.Quota = inc.Decision.Quota
		until := inc.Decision.Until
		rec.Until = &until
	}
	for i, s := range inc.Suspects {
		if i == maxRecordSuspects {
			break
		}
		rec.TopSuspects = append(rec.TopSuspects, SuspectRecord{
			Task:        s.Task.String(),
			Job:         string(s.Job),
			Correlation: s.Correlation,
		})
	}
	if inc.Group != nil {
		rec.GroupSize = len(inc.Group.Members)
		rec.GroupCorrelation = inc.Group.Correlation
	}
	return rec
}

// IncidentRecords converts a slice of incidents (as returned by
// Manager.Incidents) for JSON endpoints.
func IncidentRecords(incs []Incident) []IncidentRecord {
	out := make([]IncidentRecord, len(incs))
	for i, inc := range incs {
		out[i] = inc.Record()
	}
	return out
}
