package agent

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// SetMetrics instruments the agent's manager and egress validator
// with cm — the one place an agent's metric handles are assigned,
// whether the set is a registered one (Instrument) or a
// per-machine copy from obs.Stage (internal/cluster). A nil set disables
// instrumentation. The agent keeps no metric of its own: it is
// simulated code, and timing its tick is the daemon's business
// (cmd/cpi2agent).
func (a *Agent) SetMetrics(cm *core.Metrics) {
	a.manager.SetMetrics(cm)
	a.validator.Metrics = cm
}

// Instrument wires the agent's manager into reg and events in one call:
// the core detection/enforcement metric set and the structured event
// sink (events may be nil; any core.EventSink works — an *obs.EventLog
// directly, or an *obs.EventBuffer when emissions must be staged for
// ordered draining).
//
// Instrument points the agent directly at the shared registry series —
// right for a daemon running one agent per process (cmd/cpi2agent).
// A simulator ticking many agents in parallel should instead give each
// agent its own obs.Stage copy of the set and drain it serially, as
// internal/cluster does.
func (a *Agent) Instrument(reg *obs.Registry, events core.EventSink) {
	a.SetMetrics(core.NewMetrics(reg))
	if events != nil {
		a.manager.SetEvents(events)
	}
}
