package agent

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Metrics bundles the agent-layer metrics. All handles are nil-safe;
// a zero Metrics disables instrumentation.
type Metrics struct {
	TickSeconds *obs.Histogram // cpi2_agent_tick_seconds
	Tasks       *obs.Gauge     // cpi2_agent_tasks
}

// NewMetrics registers (or fetches) the agent metric set on r.
// Registration is idempotent, so agents sharing a registry aggregate
// into the same series.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		TickSeconds: r.Histogram("cpi2_agent_tick_seconds",
			"wall-clock duration of one agent tick", obs.LatencyBuckets),
		Tasks: r.Gauge("cpi2_agent_tasks",
			"tasks currently registered with the agent"),
	}
}

// SetMetrics instruments the agent (tick latency, task gauge) with am
// and its manager, enforcer and egress validator with cm — the one
// place an agent's metric handles are assigned, whether the sets are
// registered ones (Instrument) or per-machine copies from obs.Stage
// (internal/cluster). A nil set disables that half. The task-gauge
// baseline is applied under a.mu so it cannot race concurrent
// Register/Exit updates.
func (a *Agent) SetMetrics(am *Metrics, cm *core.Metrics) {
	if am == nil {
		am = &Metrics{}
	}
	a.mu.Lock()
	a.metrics.Store(am)
	am.Tasks.Add(float64(len(a.tasks)))
	a.mu.Unlock()
	a.manager.SetMetrics(cm)
	a.validator.Metrics = cm
}

// Instrument wires the agent and its manager into reg and events in
// one call: agent tick/task metrics, the core detection/enforcement
// metric set, and the structured event sink (events may be nil; any
// core.EventSink works — an *obs.EventLog directly, or an
// *obs.EventBuffer when emissions must be staged for ordered draining).
//
// Instrument points the agent directly at the shared registry series —
// right for a daemon running one agent per process (cmd/cpi2agent).
// A simulator ticking many agents in parallel should instead give each
// agent its own obs.Stage copies of the two sets and drain them
// serially, as internal/cluster does.
func (a *Agent) Instrument(reg *obs.Registry, events core.EventSink) {
	a.SetMetrics(NewMetrics(reg), core.NewMetrics(reg))
	if events != nil {
		a.manager.SetEvents(events)
	}
}
