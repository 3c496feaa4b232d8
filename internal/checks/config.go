package checks

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
)

// decodeStrict decodes the one JSON document in src into v, refusing
// what encoding/json lets through by default: a key v has no field
// for, a key an object names twice (the last would win silently), and
// anything after the document.
func decodeStrict(src []byte, v any) error {
	if err := checkDuplicateKeys(src); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON document")
	}
	return nil
}

// checkDuplicateKeys walks src token by token and fails on the first
// object that names a key twice.
func checkDuplicateKeys(src []byte) error {
	dec := json.NewDecoder(bytes.NewReader(src))
	var open []map[string]bool // per open container: an object's keys so far, nil for an array
	key := false               // the next string is an object key, not a value
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch tok := tok.(type) {
		case json.Delim:
			switch tok {
			case '{':
				open = append(open, map[string]bool{})
			case '[':
				open = append(open, nil)
			default:
				open = open[:len(open)-1]
			}
		case string:
			if key {
				if open[len(open)-1][tok] {
					return fmt.Errorf("duplicate key %q", tok)
				}
				open[len(open)-1][tok] = true
				key = false
				continue
			}
		}
		// A value just ended; inside an object, a key (or '}') follows.
		key = len(open) > 0 && open[len(open)-1] != nil
	}
}

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
	if err := decodeStrict(src, mc); err != nil {
		return nil, err
	}
	if err := named(&mc.Name, dirName); err != nil {
		return nil, err
	}
	return mc, mc.Validate()
}

// Fleet is the simulated cluster shape a case runs against.
type Fleet struct {
	Machines int `json:"machines"`
	// CPUsPerMachine defaults to 16.
	CPUsPerMachine    int     `json:"cpus_per_machine"`
	PlatformBFraction float64 `json:"platform_b_fraction"`
	// Workers is the cluster's parallel tick width (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// Shards is the number of spec-tier aggregator shards the fleet
	// hashes job×platform keys over (0 or 1 = the classic single
	// aggregator). Needed by cases whose chaos plan blacks out or
	// reshards the spec tier.
	Shards int `json:"shards"`
}

// WorkloadEntry is one declarative element of a case's workload mix,
// mapping onto the cluster job catalog. Kind selects the constructor:
//
//	websearch      three-tier search tree (Leaves/Mixers/Roots tasks)
//	quiet_service  well-behaved latency-sensitive tenant (Tasks, CPU)
//	batch          best-effort throughput batch (Tasks, CPU)
//	mapreduce      MapReduce workers, lame-duck cap reaction (Tasks, CPU)
//	bimodal        the Case 3 self-inflicted bimodal service (Tasks)
//	antagonist     heavy cache-thrashing batch (Tasks, CPU); implicitly
//	               expected to be capped
type WorkloadEntry struct {
	Kind string `json:"kind"`
	// Name is the job name (websearch entries derive -leaf/-mixer/-root
	// job names from it). Must be unique within the case.
	Name string `json:"name"`
	// Tasks is the task count for single-job kinds.
	Tasks int `json:"tasks"`
	// CPU is the per-task CPU request where the kind takes one.
	CPU float64 `json:"cpu"`
	// Leaves/Mixers/Roots size the websearch kind.
	Leaves int `json:"leaves"`
	Mixers int `json:"mixers"`
	Roots  int `json:"roots"`
	// AfterWarmup delays placement until after the warmup phase and
	// spec push — the canonical "antagonist lands on a warmed fleet"
	// shape. Unset (see flag): true for antagonist, false otherwise.
	AfterWarmup *bool `json:"after_warmup"`
	// ExpectCaps marks this job's tasks as legitimate cap targets:
	// caps on any other job count against the false-cap budget.
	// Unset: true for antagonist, false otherwise.
	ExpectCaps *bool `json:"expect_caps"`
}

// flag resolves one of the entry's optional flags.
func (w *WorkloadEntry) flag(set *bool) bool {
	if set != nil {
		return *set
	}
	return w.Kind == "antagonist"
}

// Budgets are the per-case pass/fail limits. Every field is optional:
// nil means "not checked".
type Budgets struct {
	// MinStepsPerSec is the floor on simulation throughput (wall-clock
	// Steps per second over the measured run).
	MinStepsPerSec *float64 `json:"min_steps_per_sec,omitempty"`
	// MinRealtimeFactor is the floor on simulated-seconds per wall
	// second (steps/sec × tick). 1.0 = "keeps up with real time", the
	// capacity-search criterion.
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

// Case is one decoded case.json.
type Case struct {
	// Name is the case name (the cases/<name>/ directory).
	Name        string `json:"name"`
	Description string `json:"description"`
	// Seed roots all randomness (default 1).
	Seed int64 `json:"seed"`
	// Fleet is the cluster shape.
	Fleet Fleet `json:"fleet"`
	// Warmup runs (and then forces a spec recompute) before measuring.
	// The three durations are written as strings: "10m".
	Warmup time.Duration `json:"warmup"`
	// Duration is the measured simulated run length.
	Duration time.Duration `json:"duration"`
	// Tick is the simulation step (default 1s).
	Tick time.Duration `json:"tick"`
	// Chaos is a cluster.FaultPlan in the -chaos directive syntax
	// (empty: no faults; the plan is still installed so spool/quarantine
	// accounting exists).
	Chaos string `json:"chaos"`
	// MinSamplesPerTask (default 8) / ReportOnly feed core.Params.
	MinSamplesPerTask int64 `json:"min_samples_per_task"`
	ReportOnly        bool  `json:"report_only"`
	// Workload is the mix.
	Workload []WorkloadEntry `json:"workload"`
	// Budgets are the verdict limits.
	Budgets Budgets `json:"budgets"`
}

// UnmarshalJSON decodes a case as its field tags say, except that the
// durations are Go duration strings. Fields the document does not name
// keep the values cs came with.
func (cs *Case) UnmarshalJSON(b []byte) error {
	type fields Case // the same fields without this method
	raw := struct {
		*fields
		Warmup   string `json:"warmup"`
		Duration string `json:"duration"`
		Tick     string `json:"tick"`
	}{fields: (*fields)(cs)}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields() // a decoder's setting does not reach a custom unmarshaler
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	set := func(key, val string, into *time.Duration) (err error) {
		if val != "" {
			if *into, err = time.ParseDuration(val); err != nil {
				err = fmt.Errorf("%s: %v", key, err)
			}
		}
		return err
	}
	return errors.Join(
		set("warmup", raw.Warmup, &cs.Warmup),
		set("duration", raw.Duration, &cs.Duration),
		set("tick", raw.Tick, &cs.Tick))
}

// faultPlan parses the case's chaos directives (always non-nil so
// every case runs with spool + quarantine accounting installed).
func (cs *Case) faultPlan() (*cluster.FaultPlan, error) {
	return cluster.ParseFaultPlan(cs.Chaos)
}

// expectedCapJobs returns the set of job names legitimately capped.
func (cs *Case) expectedCapJobs() map[string]bool {
	out := map[string]bool{}
	for _, w := range cs.Workload {
		if w.flag(w.ExpectCaps) {
			out[w.Name] = true
		}
	}
	return out
}

// Validate checks the case for structural sanity beyond what decoding
// already enforced.
func (cs *Case) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if cs.Name == "" {
		bad("case needs a name")
	}
	if cs.Fleet.Machines <= 0 {
		bad("fleet.machines must be positive")
	}
	if cs.Fleet.CPUsPerMachine < 0 || cs.Fleet.Workers < 0 || cs.Fleet.Shards < 0 {
		bad("negative fleet field")
	}
	if cs.Fleet.PlatformBFraction < 0 || cs.Fleet.PlatformBFraction > 1 {
		bad("fleet.platform_b_fraction outside [0,1]")
	}
	if cs.Duration <= 0 {
		bad("duration must be positive")
	}
	if cs.Warmup < 0 {
		bad("negative warmup")
	}
	if cs.Tick <= 0 {
		bad("tick must be positive")
	}
	if len(cs.Workload) == 0 {
		bad("workload mix is empty")
	}
	if _, err := cs.faultPlan(); err != nil {
		bad("chaos: %v", err)
	}
	seen := map[string]bool{}
	for i, w := range cs.Workload {
		where := fmt.Sprintf("workload[%d] (%s)", i, w.Kind)
		if w.Name == "" {
			bad("%s: needs a name", where)
			continue
		}
		if seen[w.Name] {
			bad("%s: duplicate job name %q", where, w.Name)
		}
		seen[w.Name] = true
		switch w.Kind {
		case "websearch":
			if w.Leaves <= 0 || w.Mixers <= 0 || w.Roots <= 0 {
				bad("%s: leaves/mixers/roots must be positive", where)
			}
		case "quiet_service", "batch", "mapreduce", "antagonist":
			if w.Tasks <= 0 {
				bad("%s: tasks must be positive", where)
			}
			if w.CPU <= 0 {
				bad("%s: cpu must be positive", where)
			}
		case "bimodal":
			if w.Tasks <= 0 {
				bad("%s: tasks must be positive", where)
			}
		default:
			bad("%s: unknown workload kind %q", where, w.Kind)
		}
	}
	for name, limit := range map[string]*float64{
		"min_steps_per_sec":              cs.Budgets.MinStepsPerSec,
		"min_realtime_factor":            cs.Budgets.MinRealtimeFactor,
		"max_allocs_per_step":            cs.Budgets.MaxAllocsPerStep,
		"max_peak_rss_mb":                cs.Budgets.MaxPeakRSSMB,
		"max_spool_drops":                cs.Budgets.MaxSpoolDrops,
		"max_false_caps":                 cs.Budgets.MaxFalseCaps,
		"max_quarantined":                cs.Budgets.MaxQuarantined,
		"min_quarantined":                cs.Budgets.MinQuarantined,
		"max_spec_staleness_p95_seconds": cs.Budgets.MaxSpecStalenessP95Seconds,
		"min_incidents":                  cs.Budgets.MinIncidents,
	} {
		if limit != nil && *limit < 0 {
			bad("budgets.%s: negative limit", name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs) // the budgets above are visited in map order
	return errors.New(strings.Join(errs, "; "))
}

// decodeCase decodes a case.json held in directory dirName.
func decodeCase(dirName string, src []byte) (*Case, error) {
	cs := &Case{Seed: 1, Tick: time.Second, MinSamplesPerTask: 8, Fleet: Fleet{CPUsPerMachine: 16}}
	if err := decodeStrict(src, cs); err != nil {
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
