// Package replay runs the CPI² analysis offline over historical
// monitoring data: a CSV export of per-task CPI samples (one row per
// task per minute) is fed through the standard per-machine manager —
// the same detector, correlator and enforcement policy that run live —
// with a recording capper instead of a real one. The output is the
// incident list the live system *would* have produced, which is the
// §5 forensics workflow ("job owners and administrators can issue
// queries against this data to conduct performance forensics") applied
// to raw samples rather than pre-computed incidents.
//
// CSV format (header required, columns in any order; extra columns are
// ignored):
//
//	timestamp,machine,job,task,platform,cpu_usage,cpi
//	2011-05-16T02:00:00Z,m1,websearch,3,intel-westmere-2.6GHz,1.2,2.4
//
// Job metadata (class/priority, for throttle eligibility) and CPI
// specs are supplied separately; specs may also be learned from the
// trace itself with LearnSpecs.
package replay

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// ParseSamples reads the CSV export. Rows are returned sorted by
// timestamp (stable for equal stamps), ready for replay. A row the
// agent's and aggregator's sample validator would refuse (NaN or Inf,
// negative, absurd magnitude, missing field) fails the parse with its
// line number and the validator's reason label.
func ParseSamples(r io.Reader) ([]model.Sample, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("replay: reading header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	for _, want := range []string{"timestamp", "machine", "job", "task", "platform", "cpu_usage", "cpi"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("replay: header missing column %q", want)
		}
	}
	var out []model.Sample
	var validator core.SampleValidator // default bounds, no clock: old traces are fine
	line := 1
	for {
		line++
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		get := func(name string) string {
			i := col[name]
			if i >= len(rec) {
				return ""
			}
			return rec[i]
		}
		ts, err := time.Parse(time.RFC3339, get("timestamp"))
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad timestamp: %w", line, err)
		}
		idx, err := strconv.Atoi(get("task"))
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad task index %q", line, get("task"))
		}
		usage, err := strconv.ParseFloat(get("cpu_usage"), 64)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad cpu_usage", line)
		}
		cpi, err := strconv.ParseFloat(get("cpi"), 64)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad cpi", line)
		}
		s := model.Sample{
			Job:       model.JobName(get("job")),
			Task:      model.TaskID{Job: model.JobName(get("job")), Index: idx},
			Platform:  model.Platform(get("platform")),
			Timestamp: ts,
			CPUUsage:  usage,
			CPI:       cpi,
			Machine:   get("machine"),
		}
		if reason := validator.Check(s); reason != "" {
			return nil, fmt.Errorf("replay: line %d: invalid sample: %s", line, reason)
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// LearnSpecs builds CPI specs from the trace itself — usable when no
// fleet aggregator export is available. The usual robustness gates
// apply, so short traces of small jobs yield no specs.
func LearnSpecs(samples []model.Sample, params core.Params) []model.Spec {
	b := core.NewSpecBuilder(params)
	var last time.Time
	for _, s := range samples {
		_ = b.AddSample(s)
		last = s.Timestamp
	}
	return b.Recompute(last)
}

// recordingCapper records what enforcement would have done; replay
// must never touch anything real.
type recordingCapper struct {
	caps map[model.TaskID]float64
}

func (r *recordingCapper) Cap(t model.TaskID, q float64) error {
	r.caps[t] = q
	return nil
}

func (r *recordingCapper) Uncap(t model.TaskID) error {
	delete(r.caps, t)
	return nil
}

// Result is the outcome of one replay.
type Result struct {
	// Incidents in trace order, across all machines.
	Incidents []core.Incident
	// Machines seen in the trace, sorted.
	Machines []string
	// SamplesReplayed counts accepted samples.
	SamplesReplayed int
	// SamplesSkipped counts samples dropped for having no usable
	// machine or arriving out of order for their task.
	SamplesSkipped int
}

// Run replays the samples through one CPI² manager per machine.
// jobs supplies class/priority metadata (tasks of unknown jobs are
// treated as latency-sensitive victims and non-throttleable suspects,
// the conservative default). specs are installed on every machine that
// runs tasks of the spec's job.
func Run(samples []model.Sample, jobs []model.Job, specs []model.Spec, params core.Params) *Result {
	params = params.Sanitize()
	res := &Result{}
	managers := make(map[string]*core.Manager)
	jobByName := make(map[model.JobName]model.Job, len(jobs))
	for _, j := range jobs {
		jobByName[j.Name] = j
	}
	mgrFor := func(machine string) *core.Manager {
		m, ok := managers[machine]
		if !ok {
			m = core.NewManager(machine, params, &recordingCapper{caps: make(map[model.TaskID]float64)})
			for _, j := range jobs {
				m.RegisterJob(j)
			}
			for _, s := range specs {
				m.UpdateSpec(s)
			}
			managers[machine] = m
		}
		return m
	}
	for _, s := range samples {
		if s.Machine == "" {
			res.SamplesSkipped++
			continue
		}
		m := mgrFor(s.Machine)
		if inc := m.Observe(s); inc != nil {
			res.Incidents = append(res.Incidents, *inc)
		}
		m.Tick(s.Timestamp)
		res.SamplesReplayed++
	}
	for name := range managers {
		res.Machines = append(res.Machines, name)
	}
	sort.Strings(res.Machines)
	return res
}
