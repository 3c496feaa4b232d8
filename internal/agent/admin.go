package agent

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Status is the /debug/status view of an agent's machine.
type Status struct {
	Machine  string         `json:"machine"`
	Platform model.Platform `json:"platform"`
	CPUs     int            `json:"cpus"`
	Tasks    int            `json:"tasks"`
	Threads  int            `json:"threads"`
	Util     float64        `json:"util"`
	Caps     int            `json:"caps"`
	// JournalErrors counts cap-journal appends that failed: enforcement
	// went ahead, but a restart cannot reconcile what was not written.
	JournalErrors int64 `json:"journal_errors"`
}

// String renders the one-line machine summary cpi2ctl prints.
func (s Status) String() string {
	return fmt.Sprintf("machine=%s platform=%s cpus=%d tasks=%d threads=%d util=%.2f caps=%d journal_errors=%d",
		s.Machine, s.Platform, s.CPUs, s.Tasks, s.Threads, s.Util, s.Caps, s.JournalErrors)
}

// taskRow is one /debug/tasks or /debug/caps entry. Cap is "cpi2" for a
// cap the manager owns (it expires on its own; Quota is its
// CPU-sec/sec), "operator" for a manual cap, which the manager neither
// owns nor expires, and empty for an uncapped task.
type taskRow struct {
	Task     string  `json:"task"`
	Class    string  `json:"class"`
	Priority string  `json:"priority"`
	Cap      string  `json:"cap,omitempty"`
	Quota    float64 `json:"quota,omitempty"`
}

// incidentRow is an incident in a /debug/trace chain: the incident's
// record, tagged with a stage so it reads as the chain's last hop.
type incidentRow struct {
	Stage string `json:"stage"`
	core.IncidentRecord
}

// RegisterAdmin puts the agent's operator surface (§5) on admin, where
// operators inspect a machine, ask why CPI² acted, and hard-cap
// suspects by hand:
//
//	GET  /debug/status                         the machine in one line
//	GET  /debug/tasks                          tasks: class, priority, who capped it
//	GET  /debug/caps                           the capped tasks only
//	GET  /debug/incidents?n=                   recent incidents (core.IncidentRecord)
//	GET  /debug/specs                          the spec table detection uses
//	GET  /debug/quarantine?n=                  samples the egress validator refused
//	GET  /debug/trace?id=<trace-id|job/index>  a causal chain: spans, decisions, incidents
//	POST /cap?task=<job/index>&quota=<cpu>     an operator cap (machine.Cap)
//	POST /uncap?task=<job/index>
//	POST /release-all                          release every CPI²-owned cap
//
// The manager keeps no incident log of its own: /debug/incidents and
// /debug/trace read the "incident" events of the event log admin serves
// at /debug/events, which Instrument hands the manager. /debug/incidents
// is that endpoint's ?type=incident view without the envelopes, so it
// covers what the log's ring still holds. A job/index trace argument
// resolves to the newest incident naming the task as victim or cap
// target: "why was this task capped?".
//
// The machine simulator is not safe for concurrent use, so the machine
// views and the verbs hold state, the lock the daemon's tick loop holds
// around every tick. The manager, validator and span store lock
// themselves. Call it after SetTrace: /debug/trace reads the store
// the agent has at registration.
func RegisterAdmin(admin *obs.AdminServer, a *Agent, state sync.Locker) {
	m := a.Machine()
	mgr := a.Manager()
	events := admin.Events()
	locked := func(fn func(q url.Values) (any, error)) func(q url.Values) (any, error) {
		return func(q url.Values) (any, error) {
			state.Lock()
			defer state.Unlock()
			return fn(q)
		}
	}

	admin.HandleJSON("/debug/status", locked(func(url.Values) (any, error) {
		return Status{
			Machine: m.Name(), Platform: m.Platform(), CPUs: m.NumCPUs(),
			Tasks: m.NumTasks(), Threads: m.ThreadCount(), Util: m.Utilization(),
			Caps: len(mgr.ActiveCaps()), JournalErrors: mgr.JournalErrors(),
		}, nil
	}))
	// The machine's cgroups are the source of truth for caps: they
	// include operator caps the manager does not own.
	tasks := func(cappedOnly bool) func(url.Values) (any, error) {
		return locked(func(url.Values) (any, error) {
			owned := mgr.ActiveCaps()
			rows := []taskRow{}
			for _, id := range m.Tasks() {
				job := mgr.Job(id.Job)
				row := taskRow{Task: id.String(), Class: job.Class.String(), Priority: job.Priority.String()}
				if m.IsCapped(id) {
					row.Cap = "operator"
					if q, ok := owned[id]; ok {
						row.Cap, row.Quota = "cpi2", q
					}
				}
				if row.Cap != "" || !cappedOnly {
					rows = append(rows, row)
				}
			}
			return rows, nil
		})
	}
	admin.HandleJSON("/debug/tasks", tasks(false))
	admin.HandleJSON("/debug/caps", tasks(true))
	admin.HandleJSON("/debug/incidents", func(q url.Values) (any, error) {
		return incidentRecords(events, obs.IntParam(q, "n", 0)), nil
	})
	admin.HandleJSON("/debug/specs", func(url.Values) (any, error) {
		return mgr.Specs(), nil
	})
	admin.HandleJSON("/debug/quarantine", func(q url.Values) (any, error) {
		quar := a.Validator().Quarantine
		return map[string]any{
			"total":  quar.Total(),
			"recent": quar.Recent(obs.IntParam(q, "n", 50)),
		}, nil
	})
	admin.HandleTrace(a.Trace(), traceJoin(events))

	admin.HandleAction("/cap", locked(func(q url.Values) (any, error) {
		task, err := model.ParseTaskID(q.Get("task"))
		if err != nil {
			return nil, err
		}
		quota, err := strconv.ParseFloat(q.Get("quota"), 64)
		if err != nil || !(quota > 0) || math.IsInf(quota, 1) {
			return nil, fmt.Errorf("bad quota %q (want CPU-sec/sec > 0)", q.Get("quota"))
		}
		if err := m.Cap(task, quota); err != nil {
			return nil, err
		}
		return fmt.Sprintf("capped %v at %g CPU-sec/sec", task, quota), nil
	}))
	admin.HandleAction("/uncap", locked(func(q url.Values) (any, error) {
		task, err := model.ParseTaskID(q.Get("task"))
		if err != nil {
			return nil, err
		}
		if err := m.Uncap(task); err != nil {
			return nil, err
		}
		return fmt.Sprintf("uncapped %v", task), nil
	}))
	admin.HandleAction("/release-all", locked(func(url.Values) (any, error) {
		return fmt.Sprintf("released %d caps", len(mgr.ReleaseAll())), nil
	}))
}

// incidentRecords returns the records of the newest n "incident"
// events in events (every one it holds when n ≤ 0), oldest first.
func incidentRecords(events *obs.EventLog, n int) []core.IncidentRecord {
	evs := events.Recent(n, "incident")
	recs := make([]core.IncidentRecord, 0, len(evs))
	for _, ev := range evs {
		if rec, ok := ev.Data.(core.IncidentRecord); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// traceJoin is the agent's /debug/trace hook over its event log: it
// resolves a job/index argument to the trace of the newest incident
// involving the task, and returns rows to follow the trace's spans: a
// decision row per incident, then the incidents. Read from the log, a
// cap's decision row outlives its spans.
func traceJoin(events *obs.EventLog) func(arg string) (string, []any, error) {
	return func(arg string) (string, []any, error) {
		recs := incidentRecords(events, 0)
		id := arg
		if task, err := model.ParseTaskID(arg); err == nil {
			id = ""
			name := task.String()
			for i := len(recs) - 1; i >= 0; i-- {
				if recs[i].Victim == name || recs[i].Target == name {
					id = recs[i].TraceID
					break
				}
			}
			if id == "" {
				return "", nil, fmt.Errorf("no incident involves %v", task)
			}
		}
		var decisions, incidents []any
		for _, rec := range recs {
			if rec.TraceID == id {
				decisions = append(decisions, decisionSpan(rec))
				incidents = append(incidents, incidentRow{Stage: "incident", IncidentRecord: rec})
			}
		}
		return id, append(decisions, incidents...), nil
	}
}

// decisionSpan renders an incident's decision as the span it reads as
// in a chain: the victim's key, the reaction as its queue, and the
// action and its target as its detail.
func decisionSpan(rec core.IncidentRecord) trace.Span {
	detail := rec.Action
	if rec.Target != "" {
		detail += " " + rec.Target
	}
	return trace.Span{
		TraceID:      rec.TraceID,
		Stage:        trace.StageDecision,
		Machine:      rec.Machine,
		Key:          rec.Victim,
		Time:         rec.Time,
		QueueSeconds: rec.Reaction.Seconds(),
		Detail:       detail,
	}
}
