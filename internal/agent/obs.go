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

// NewLocalMetrics returns an agent metric set backed by standalone
// (unregistered) cells — a per-machine local set. Agents ticking on
// concurrent goroutines each write their own local set instead of
// hammering the shared registry series' cache lines; a serial
// coordinator folds local sets into the registered one with DrainTo. The
// cluster does this once per machine per commit phase.
func NewLocalMetrics() *Metrics {
	return &Metrics{
		TickSeconds: obs.NewHistogram(obs.LatencyBuckets),
		Tasks:       &obs.Gauge{},
	}
}

// DrainTo moves everything accumulated in m into dst and resets m —
// the metric analogue of obs.EventBuffer.DrainTo. The Tasks gauge
// moves as a delta, so dst accumulates the fleet total.
func (m *Metrics) DrainTo(dst *Metrics) {
	if m == nil || dst == nil {
		return
	}
	m.TickSeconds.Drain(dst.TickSeconds)
	m.Tasks.Drain(dst.Tasks)
}

// SetMetrics instruments the agent itself (tick latency, task gauge).
// A nil m disables instrumentation. The task-gauge baseline is applied
// under a.mu so it cannot race concurrent Register/Exit updates.
func (a *Agent) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	a.mu.Lock()
	a.metrics.Store(m)
	m.Tasks.Add(float64(len(a.tasks)))
	a.mu.Unlock()
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
// agent a NewLocalMetrics set and drain the sets serially, as
// internal/cluster does.
func (a *Agent) Instrument(reg *obs.Registry, events core.EventSink) {
	a.SetMetrics(NewMetrics(reg))
	cm := core.NewMetrics(reg)
	a.manager.SetMetrics(cm)
	a.validator.Metrics = cm
	if events != nil {
		a.manager.SetEvents(events)
	}
}
