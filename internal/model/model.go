// Package model defines the shared vocabulary of the CPI² system:
// platforms (CPU types), jobs and their priority bands, tasks, and the
// two record types that flow through the data pipeline — CPI samples
// (machine → aggregator) and CPI specs (aggregator → machine).
//
// The types mirror the field layouts the paper gives in §3.1:
//
//	sample: jobname, platforminfo, timestamp, cpu_usage, cpi
//	spec:   jobname, platforminfo, num_samples, cpu_usage_mean,
//	        cpi_mean, cpi_stddev
package model

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Platform identifies a hardware platform (CPU type). CPI is a
// function of the platform, so specs are aggregated per job×platform
// and never compared across platforms.
type Platform string

// Common simulated platforms. The two types echo the paper's Figure 4,
// which shows tasks of the same job running on two platforms with
// visibly different CPI levels.
const (
	PlatformA Platform = "intel-westmere-2.6GHz"
	PlatformB Platform = "amd-interlagos-2.1GHz"
)

// JobName identifies a job: a set of identical tasks running the same
// binary. Spec aggregation keys on (JobName, Platform).
type JobName string

// TaskID identifies one task of a job.
type TaskID struct {
	Job   JobName
	Index int
}

// String renders "job/index", the conventional task notation.
func (t TaskID) String() string { return fmt.Sprintf("%s/%d", t.Job, t.Index) }

// ParseTaskID parses the "job/index" form String produces. The split
// is on the LAST slash, so job names containing slashes round-trip.
func ParseTaskID(s string) (TaskID, error) {
	i := strings.LastIndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return TaskID{}, fmt.Errorf("model: bad task id %q (want job/index)", s)
	}
	idx, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return TaskID{}, fmt.Errorf("model: bad task index in %q", s)
	}
	return TaskID{Job: JobName(s[:i]), Index: idx}, nil
}

// Priority is the scheduling band of a job. The paper's clusters
// classify jobs as "production" (latency-sensitive services) and
// "non-production" (batch); best-effort is the lowest batch tier and
// gets the harshest cap (0.01 CPU-sec/sec vs 0.1).
type Priority int

const (
	// PriorityBestEffort is the lowest band: freely throttleable batch.
	PriorityBestEffort Priority = iota
	// PriorityBatch is ordinary non-production batch work.
	PriorityBatch
	// PriorityProduction is the latency-sensitive production band.
	PriorityProduction
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityBestEffort:
		return "best-effort"
	case PriorityBatch:
		return "batch"
	case PriorityProduction:
		return "production"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// IsProduction reports whether the band is the production band.
func (p Priority) IsProduction() bool { return p == PriorityProduction }

// JobClass describes what kind of work a job does, which determines
// whether CPI² may throttle it (§5: "we give preference to
// latency-sensitive jobs over batch ones").
type JobClass int

const (
	// ClassBatch jobs are throughput-oriented and throttleable.
	ClassBatch JobClass = iota
	// ClassLatencySensitive jobs serve user-facing requests and are
	// eligible for CPI² protection.
	ClassLatencySensitive
)

// String implements fmt.Stringer.
func (c JobClass) String() string {
	if c == ClassLatencySensitive {
		return "latency-sensitive"
	}
	return "batch"
}

// Job describes a job's identity and scheduling properties.
type Job struct {
	Name     JobName
	Class    JobClass
	Priority Priority
	// NumTasks is the number of identical tasks in the job.
	NumTasks int
	// CPUPerTask is the CPU reservation per task in CPU-sec/sec.
	CPUPerTask float64
	// ProtectionEligible marks the job as eligible for CPI²
	// victim protection even if it is not latency-sensitive (§5 allows
	// explicit opt-in).
	ProtectionEligible bool
}

// Protected reports whether CPI² should act on this job's behalf when
// it is victimized: latency-sensitive jobs and explicit opt-ins.
func (j Job) Protected() bool {
	return j.Class == ClassLatencySensitive || j.ProtectionEligible
}

// Throttleable reports whether CPI² may hard-cap this job's tasks when
// they are identified as antagonists. Policy per §5: only batch jobs
// are throttled; latency-sensitive antagonists are reported but left
// alone.
func (j Job) Throttleable() bool { return j.Class == ClassBatch }

// Sample is one CPI measurement for one task, the record shipped from
// machines to the aggregation pipeline (§3.1).
type Sample struct {
	Job       JobName   `json:"jobname"`
	Task      TaskID    `json:"task"`
	Platform  Platform  `json:"platforminfo"`
	Timestamp time.Time `json:"timestamp"`
	CPUUsage  float64   `json:"cpu_usage"` // CPU-sec/sec during the window
	CPI       float64   `json:"cpi"`
	Machine   string    `json:"machine"`
	// TraceID is the causal-tracing context stamped on the batch the
	// sample was reported in (obs/trace). Optional: absent on frames
	// from older agents, and Validate deliberately ignores it.
	TraceID string `json:"trace_id,omitempty"`
}

// Spec is the aggregated CPI prediction for one job on one platform —
// the paper's "CPI spec" (§3.1). The aggregator computes it and pushes
// it to every machine running tasks of the job.
type Spec struct {
	Job          JobName  `json:"jobname"`
	Platform     Platform `json:"platforminfo"`
	NumSamples   int64    `json:"num_samples"`
	NumTasks     int      `json:"num_tasks"`
	CPUUsageMean float64  `json:"cpu_usage_mean"`
	CPIMean      float64  `json:"cpi_mean"`
	CPIStddev    float64  `json:"cpi_stddev"`
	// UpdatedAt records when the spec was (re)computed.
	UpdatedAt time.Time `json:"updated_at"`
}

// OutlierThreshold returns the CPI value above which a measurement is
// flagged as an outlier: mean + k·σ. The paper uses k = 2 for flagging
// (§4.1) and finds k = 3 the right bar for declaring anomalies
// (Figure 16b).
func (s Spec) OutlierThreshold(k float64) float64 {
	return s.CPIMean + k*s.CPIStddev
}

// Robust reports whether the spec rests on enough data for CPI
// management: the paper requires at least 5 tasks and at least 100
// samples per task (§3.1).
func (s Spec) Robust(minTasks int, minSamplesPerTask int64) bool {
	if s.NumTasks < minTasks {
		return false
	}
	if s.NumTasks == 0 {
		return false
	}
	return s.NumSamples/int64(s.NumTasks) >= minSamplesPerTask
}

// SpecKey identifies a spec: the job×platform aggregation granularity.
type SpecKey struct {
	Job      JobName
	Platform Platform
}

// Key returns the spec's aggregation key.
func (s Spec) Key() SpecKey { return SpecKey{Job: s.Job, Platform: s.Platform} }

// String renders the key as "job@platform".
func (k SpecKey) String() string { return string(k.Job) + "@" + string(k.Platform) }
