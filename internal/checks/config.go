package checks

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
)

// MachineClass is the decoded machine.json: the resource envelope a
// class of hosts offers, and the defaults its cases inherit.
type MachineClass struct {
	// Name identifies the class (defaults to the directory name; when
	// both are present they must agree).
	Name string `json:"name"`
	// Description is free-form prose for humans.
	Description string `json:"description"`
	// MinCPUs is the smallest logical CPU count a host needs to count
	// as this class (default 1). `cpi2bench check` auto-selects the
	// most demanding class the host satisfies.
	MinCPUs int `json:"min_cpus"`
	// GOMAXPROCS, when > 0, pins the Go scheduler while this class's
	// cases run — a 4-core class measured on a 64-core build host must
	// not borrow the extra cores.
	GOMAXPROCS int `json:"gomaxprocs"`
	// MaxPeakRSSMB, when > 0, is the class-wide default for the
	// max_peak_rss_mb budget, inherited by cases that do not set their
	// own.
	MaxPeakRSSMB float64 `json:"max_peak_rss_mb"`
}

// Validate checks structural sanity.
func (mc *MachineClass) Validate() error {
	if mc.Name == "" {
		return errors.New("machine class needs a name")
	}
	if mc.MinCPUs < 0 || mc.GOMAXPROCS < 0 || mc.MaxPeakRSSMB < 0 {
		return fmt.Errorf("machine class %q: negative resource bound", mc.Name)
	}
	return nil
}

// named settles a decoded file's name against the directory that holds
// it: the directory names it, and a name in the file must agree
// (guards against copy-paste drift between file and directory).
func named(name *string, dirName string) error {
	if *name == "" {
		*name = dirName
	} else if dirName != "" && *name != dirName {
		return fmt.Errorf("name %q does not match directory %q", *name, dirName)
	}
	return nil
}

// decodeMachineClass decodes a machine.json held in directory dirName.
func decodeMachineClass(dirName string, src []byte) (*MachineClass, error) {
	mc := &MachineClass{MinCPUs: 1}
	if err := cluster.DecodeStrict(src, mc); err != nil {
		return nil, err
	}
	if err := named(&mc.Name, dirName); err != nil {
		return nil, err
	}
	return mc, mc.Validate()
}

// Budgets are the per-case pass/fail limits. Every field is optional:
// nil means "not checked".
type Budgets struct {
	// MinStepsPerSec is the floor on simulation throughput (wall-clock
	// Steps per second over the measured run).
	MinStepsPerSec *float64 `json:"min_steps_per_sec,omitempty"`
	// MinRealtimeFactor is the floor on simulated-seconds per wall
	// second (steps/sec × tick). 1.0 = "keeps up with real time".
	MinRealtimeFactor *float64 `json:"min_realtime_factor,omitempty"`
	// MaxAllocsPerStep caps heap allocations per Step (runtime
	// MemStats.Mallocs delta / steps).
	MaxAllocsPerStep *float64 `json:"max_allocs_per_step,omitempty"`
	// MaxPeakRSSMB caps the peak Go-runtime memory footprint
	// (MemStats.Sys high-water mark) in MiB.
	MaxPeakRSSMB *float64 `json:"max_peak_rss_mb,omitempty"`
	// MaxSpoolDrops caps FaultStats.SpoolDropped (sample batches lost
	// to spool overflow).
	MaxSpoolDrops *float64 `json:"max_spool_drops,omitempty"`
	// MaxFalseCaps caps cap decisions targeting jobs not marked
	// expect_caps.
	MaxFalseCaps *float64 `json:"max_false_caps,omitempty"`
	// MaxQuarantined / MinQuarantined bound the aggregator-ingress
	// quarantine counter: zero tolerance on clean runs, a non-zero
	// floor on corrupt-injection runs (proving the validator works).
	MaxQuarantined *float64 `json:"max_quarantined,omitempty"`
	MinQuarantined *float64 `json:"min_quarantined,omitempty"`
	// MaxSpecStalenessP95Seconds caps the p95 of
	// cpi2_spec_staleness_seconds across all jobs.
	MaxSpecStalenessP95Seconds *float64 `json:"max_spec_staleness_p95_seconds,omitempty"`
	// MinIncidents floors the incident count — a capacity case that
	// detected nothing is not exercising the control loop it claims to.
	MinIncidents *float64 `json:"min_incidents,omitempty"`
}

// Case is one decoded case.json: a scenario plus what judges it — the
// measured duration and the budgets — and the case's identity.
type Case struct {
	// Name is the case name (the cases/<name>/ directory).
	Name        string `json:"name"`
	Description string `json:"description"`
	// Scenario is the fleet run. Its Warmup ends with a forced spec
	// recompute before measuring; its Chaos plan is always installed, so
	// spool/quarantine accounting exists on clean cases too.
	cluster.Scenario
	// Duration is the measured simulated run length, a whole number of
	// ticks, written as a string: "10m".
	Duration time.Duration `json:"duration"`
	// Budgets are the verdict limits.
	Budgets Budgets `json:"budgets"`
}

// UnmarshalJSON decodes a case's own keys into its own fields and every
// other key into the embedded scenario, both strictly. Without this
// method Scenario's would be promoted to Case and take the case's keys
// for unknown scenario keys.
func (cs *Case) UnmarshalJSON(b []byte) error {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		return err
	}
	own := map[string]json.RawMessage{}
	for _, k := range []string{"name", "description", "duration", "budgets"} {
		if v, ok := keys[k]; ok {
			own[k] = v
			delete(keys, k)
		}
	}
	raw := struct {
		Name        *string  `json:"name"`
		Description *string  `json:"description"`
		Duration    string   `json:"duration"`
		Budgets     *Budgets `json:"budgets"`
	}{Name: &cs.Name, Description: &cs.Description, Budgets: &cs.Budgets}
	decode := func(m map[string]json.RawMessage, v any) error {
		b, _ := json.Marshal(m) // re-encodes values that already decoded
		return cluster.DecodeStrict(b, v)
	}
	if err := decode(keys, &cs.Scenario); err != nil {
		return err
	}
	if err := decode(own, &raw); err != nil {
		return err
	}
	if raw.Duration == "" {
		return nil
	}
	var err error
	if cs.Duration, err = time.ParseDuration(raw.Duration); err != nil {
		return fmt.Errorf("duration: %v", err)
	}
	return nil
}

// Validate checks the case for structural sanity beyond what decoding
// already enforced.
func (cs *Case) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if cs.Name == "" {
		bad("case needs a name")
	}
	if err := cs.Scenario.Validate(); err != nil {
		bad("%v", err)
	}
	if cs.Tick <= 0 || cs.Duration <= 0 || cs.Duration%cs.Tick != 0 {
		bad("duration must be a positive whole number of ticks (tick %v)", cs.Tick)
	}
	checks, _ := cs.Budgets.evaluate(Measured{}) // one per declared budget
	for _, c := range checks {
		if c.Limit < 0 {
			bad("budgets.%s: negative limit", c.Budget)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(errs, "; "))
}

// decodeCase decodes a case.json held in directory dirName.
func decodeCase(dirName string, src []byte) (*Case, error) {
	cs := &Case{}
	if err := cluster.DecodeStrict(src, cs); err != nil {
		return nil, err
	}
	if err := named(&cs.Name, dirName); err != nil {
		return nil, err
	}
	return cs, cs.Validate()
}

// inheritDefaults fills case budgets the machine class provides
// class-wide defaults for.
func (cs *Case) inheritDefaults(mc *MachineClass) {
	if cs.Budgets.MaxPeakRSSMB == nil && mc.MaxPeakRSSMB > 0 {
		v := mc.MaxPeakRSSMB
		cs.Budgets.MaxPeakRSSMB = &v
	}
}
