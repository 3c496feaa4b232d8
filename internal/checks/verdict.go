package checks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// VerdictSchemaVersion versions the verdict JSON, BENCH_cluster_step
// style: consumers (CI gates, dashboards) check it before trusting
// field semantics.
const VerdictSchemaVersion = 1

// Measured is everything the runner observed about one case run. All
// fields are always populated, whether or not a budget judges them —
// a verdict is also a measurement record.
type Measured struct {
	// StepsPerSec is wall-clock simulation throughput over the
	// measured (post-warmup) run.
	StepsPerSec float64 `json:"steps_per_sec"`
	// RealtimeFactor is simulated seconds per wall second
	// (StepsPerSec × tick); ≥ 1 means the host keeps up with real time.
	RealtimeFactor float64 `json:"realtime_factor"`
	// AllocsPerStep is heap allocations per Step over the measured run.
	AllocsPerStep float64 `json:"allocs_per_step"`
	// PeakRSSMB is the high-water mark of runtime MemStats.Sys in MiB —
	// the Go runtime's total OS footprint, sampled across the run.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// SpoolDrops / Quarantined come from cluster.FaultStats.
	SpoolDrops  int64 `json:"spool_drops"`
	Quarantined int64 `json:"quarantined"`
	// FalseCaps counts cap decisions targeting jobs not marked
	// expect_caps; CapsTotal counts all cap decisions.
	FalseCaps int `json:"false_caps"`
	CapsTotal int `json:"caps_total"`
	// Incidents is the total incident count.
	Incidents int `json:"incidents"`
	// SpecStalenessP95Seconds is the p95 of cpi2_spec_staleness_seconds
	// merged across all {job} series.
	SpecStalenessP95Seconds float64 `json:"spec_staleness_p95_seconds"`
	// WallSeconds is the wall-clock time of the measured run;
	// SimSeconds the simulated time (ticks × tick).
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
	Ticks       int     `json:"ticks"`
}

// BudgetCheck is one budget's judgment.
type BudgetCheck struct {
	// Budget is the case file's key, e.g. "min_steps_per_sec".
	Budget string `json:"budget"`
	// Limit is the declared bound; Measured the observed value;
	// Pass whether Measured respects Limit in the budget's direction.
	Limit    float64 `json:"limit"`
	Measured float64 `json:"measured"`
	Pass     bool    `json:"pass"`
}

// Verdict is the per-case output of `cpi2bench check`.
type Verdict struct {
	SchemaVersion int    `json:"schema_version"`
	Class         string `json:"class"`
	Case          string `json:"case"`
	Description   string `json:"description,omitempty"`
	Seed          int64  `json:"seed"`
	Machines      int    `json:"machines"`
	Workers       int    `json:"workers"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Chaos         string `json:"chaos,omitempty"`
	Pass          bool   `json:"pass"`
	// Checks holds one entry per declared budget, in a fixed order.
	Checks   []BudgetCheck `json:"checks"`
	Measured Measured      `json:"measured"`
}

// evaluate judges m against b, producing one BudgetCheck per declared
// budget in declaration order (stable across runs for diffable
// verdicts). The overall pass is the conjunction.
func (b *Budgets) evaluate(m Measured) (checks []BudgetCheck, pass bool) {
	pass = true
	add := func(name string, limit *float64, measured float64, ok func(measured, limit float64) bool) {
		if limit == nil {
			return
		}
		c := BudgetCheck{Budget: name, Limit: *limit, Measured: measured, Pass: ok(measured, *limit)}
		if !c.Pass {
			pass = false
		}
		checks = append(checks, c)
	}
	atLeast := func(measured, limit float64) bool { return measured >= limit }
	atMost := func(measured, limit float64) bool { return measured <= limit }

	add("min_steps_per_sec", b.MinStepsPerSec, m.StepsPerSec, atLeast)
	add("min_realtime_factor", b.MinRealtimeFactor, m.RealtimeFactor, atLeast)
	add("max_allocs_per_step", b.MaxAllocsPerStep, m.AllocsPerStep, atMost)
	add("max_peak_rss_mb", b.MaxPeakRSSMB, m.PeakRSSMB, atMost)
	add("max_spool_drops", b.MaxSpoolDrops, float64(m.SpoolDrops), atMost)
	add("max_false_caps", b.MaxFalseCaps, float64(m.FalseCaps), atMost)
	add("max_quarantined", b.MaxQuarantined, float64(m.Quarantined), atMost)
	add("min_quarantined", b.MinQuarantined, float64(m.Quarantined), atLeast)
	add("max_spec_staleness_p95_seconds", b.MaxSpecStalenessP95Seconds, m.SpecStalenessP95Seconds, atMost)
	add("min_incidents", b.MinIncidents, float64(m.Incidents), atLeast)
	return checks, pass
}

// FileName is the canonical artifact name for a verdict:
// VERDICT_<class>__<case>.json.
func (v *Verdict) FileName() string {
	return fmt.Sprintf("VERDICT_%s__%s.json", v.Class, v.Case)
}

// WriteFile writes the verdict JSON (indented, trailing newline) into
// dir under its canonical name, creating dir if needed.
func (v *Verdict) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, v.FileName())
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// Summary renders a one-line human summary:
// "class/case PASS (steps/sec 312.4) [min_steps_per_sec ok, …]".
func (v *Verdict) Summary() string {
	var sb strings.Builder
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&sb, "%s/%s %s (%.1f steps/sec, rt×%.2f)", v.Class, v.Case, status,
		v.Measured.StepsPerSec, v.Measured.RealtimeFactor)
	for _, c := range v.Checks {
		if !c.Pass {
			fmt.Fprintf(&sb, " [%s: measured %g vs limit %g]", c.Budget, c.Measured, c.Limit)
		}
	}
	return sb.String()
}
