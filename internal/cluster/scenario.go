package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// Scenario declares a fleet run — a fleet, a job mix, a spec warm-up,
// and the jobs that land on the warmed fleet — and Start is the one
// place such a run is assembled. Its JSON keys are a checks case's
// minus the case's own (name, description, duration, budgets). A zero
// field takes Config's default; a file's defaults are UnmarshalJSON's.
type Scenario struct {
	// Seed roots all randomness (file default 1).
	Seed int64 `json:"seed"`
	// Warmup is run before a forced spec recompute and push; it must be
	// a whole number of ticks. 0 skips both.
	Warmup time.Duration `json:"warmup"`
	// Tick is the simulation step (file default 1s).
	Tick time.Duration `json:"tick"`
	// Chaos is a FaultPlan in ParseFaultPlan's directive syntax (empty:
	// nothing injected). Offsets count from the epoch, warm-up included.
	Chaos string `json:"chaos"`
	// MinSamplesPerTask (file default 8) and ReportOnly feed core.Params.
	MinSamplesPerTask int64 `json:"min_samples_per_task"`
	ReportOnly        bool  `json:"report_only"`
	Fleet             Fleet `json:"fleet"`
	// Workload is the job mix, placed in declaration order.
	Workload []WorkloadEntry `json:"workload"`
}

// Fleet is a scenario's cluster shape.
type Fleet struct {
	Machines int `json:"machines"`
	// CPUsPerMachine defaults to 16.
	CPUsPerMachine    int     `json:"cpus_per_machine"`
	PlatformBFraction float64 `json:"platform_b_fraction"`
	// Shards is the spec tier's ring size (0 or 1: one aggregator).
	Shards int `json:"shards"`
}

// WorkloadEntry is one job of a scenario's mix (three for websearch),
// built by the catalog constructor its Kind names, at the constructor's
// priority unless Priority overrides it:
//
//	websearch      WebSearchJob (Leaves/Mixers/Roots)      production
//	quiet_service  QuietServiceJob (Tasks, CPU)            production
//	batch          BatchJob (Tasks, CPU)                   best_effort
//	mapreduce      MapReduceJob, lame-duck (Tasks, CPU)    batch
//	bimodal        BimodalJob (Tasks)                      production
//	antagonist     AntagonistJob (Tasks, CPU)              batch
type WorkloadEntry struct {
	Kind string `json:"kind"`
	// Name is the job name (websearch derives -leaf/-mixer/-root job
	// names from it). Unique within the scenario.
	Name string `json:"name"`
	// Tasks is the task count for single-job kinds; CPU the per-task
	// request where the kind takes one.
	Tasks int     `json:"tasks"`
	CPU   float64 `json:"cpu"`
	// Leaves/Mixers/Roots size the websearch kind.
	Leaves int `json:"leaves"`
	Mixers int `json:"mixers"`
	Roots  int `json:"roots"`
	// Priority is production, batch or best_effort (empty: the kind's).
	Priority string `json:"priority"`
	// AfterWarmup places the entry after the warm-up and its spec push —
	// the "antagonist lands on a warmed fleet" shape. Unset: true for
	// antagonist only.
	AfterWarmup *bool `json:"after_warmup"`
	// ExpectCaps marks the job as a legitimate cap target, for judges of
	// the run (checks' false-cap budget). Unset: true for antagonist only.
	ExpectCaps *bool `json:"expect_caps"`
}

// priorityNames maps the priority key's values onto the bands.
var priorityNames = map[string]model.Priority{
	"production":  model.PriorityProduction,
	"batch":       model.PriorityBatch,
	"best_effort": model.PriorityBestEffort,
}

func (w *WorkloadEntry) flag(set *bool) bool {
	if set != nil {
		return *set
	}
	return w.Kind == "antagonist"
}

// Lands reports whether the entry is placed after the warm-up.
func (w *WorkloadEntry) Lands() bool { return w.flag(w.AfterWarmup) }

// ExpectsCaps reports whether caps on the entry's job are legitimate.
func (w *WorkloadEntry) ExpectsCaps() bool { return w.flag(w.ExpectCaps) }

// defs builds the entry's job definitions; a websearch entry also
// registers its tree's EndTick with c.
func (w *WorkloadEntry) defs(c *Cluster) []JobDef {
	var defs []JobDef
	switch w.Kind {
	case "websearch":
		search, tree := WebSearchJob(w.Name, w.Leaves, w.Mixers, w.Roots, c.RNG())
		c.OnTick(func(time.Time) { tree.EndTick() })
		defs = search
	case "quiet_service":
		defs = []JobDef{QuietServiceJob(w.Name, w.Tasks, w.CPU)}
	case "batch":
		defs = []JobDef{BatchJob(w.Name, w.Tasks, w.CPU, model.PriorityBestEffort)}
	case "mapreduce":
		defs = []JobDef{MapReduceJob(w.Name, w.Tasks, w.CPU, workload.ReactLameDuck)}
	case "bimodal":
		defs = []JobDef{BimodalJob(w.Name, w.Tasks)}
	case "antagonist":
		defs = []JobDef{AntagonistJob(w.Name, w.Tasks, w.CPU, model.PriorityBatch)}
	}
	if p, ok := priorityNames[w.Priority]; ok {
		for i := range defs {
			defs[i].Job.Priority = p
		}
	}
	return defs
}

// Validate checks the scenario for structural sanity.
func (s *Scenario) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if s.Fleet.Machines <= 0 {
		bad("fleet.machines must be positive")
	}
	if s.Fleet.CPUsPerMachine < 0 || s.Fleet.Shards < 0 {
		bad("negative fleet field")
	}
	if s.Fleet.PlatformBFraction < 0 || s.Fleet.PlatformBFraction > 1 {
		bad("fleet.platform_b_fraction outside [0,1]")
	}
	tick := s.Tick
	if tick == 0 {
		tick = time.Second
	}
	if tick < 0 {
		bad("negative tick")
	} else if s.Warmup < 0 || s.Warmup%tick != 0 {
		bad("warmup must be a non-negative whole number of ticks")
	}
	if len(s.Workload) == 0 {
		bad("workload mix is empty")
	}
	if _, err := ParseFaultPlan(s.Chaos); err != nil {
		bad("chaos: %v", err)
	}
	seen := map[string]bool{}
	for i, w := range s.Workload {
		where := fmt.Sprintf("workload[%d] (%s)", i, w.Kind)
		if w.Name == "" {
			bad("%s: needs a name", where)
			continue
		}
		if seen[w.Name] {
			bad("%s: duplicate job name %q", where, w.Name)
		}
		seen[w.Name] = true
		if _, ok := priorityNames[w.Priority]; !ok && w.Priority != "" {
			bad("%s: unknown priority %q", where, w.Priority)
		}
		switch w.Kind {
		case "websearch":
			if w.Leaves <= 0 || w.Mixers <= 0 || w.Roots <= 0 {
				bad("%s: leaves/mixers/roots must be positive", where)
			}
		case "quiet_service", "batch", "mapreduce", "antagonist":
			if w.CPU <= 0 {
				bad("%s: cpu must be positive", where)
			}
			fallthrough
		case "bimodal":
			if w.Tasks <= 0 {
				bad("%s: tasks must be positive", where)
			}
		default:
			bad("%s: unknown workload kind %q", where, w.Kind)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(errs, "; "))
}

// Warm is the warm-up boundary Start returns: when the after_warmup
// entries landed, how many incidents had been raised by then
// (c.Incidents()[Incidents:] is the warmed fleet's), and the forced
// recompute's spec table (nil without a warm-up).
type Warm struct {
	At        time.Time
	Incidents int
	Specs     []model.Spec
}

// Start builds the scenario's cluster and runs it to the warm-up
// boundary. base supplies what a scenario does not declare (Workers,
// Registry, Events, TraceCapacity, and the Params fields other than
// MinSamplesPerTask and ReportOnly); the declared fields are copied
// over it. The order is fixed, since seeded outcomes depend on it:
//
//  1. build the cluster;
//  2. place the entries that do not land after the warm-up, in
//     declaration order, registering a websearch tree's EndTick with
//     OnTick at the entry's position;
//  3. if Warmup > 0, run it and force RecomputeSpecs (WarmUpSpecs: an
//     error if no spec is robust);
//  4. land the after_warmup entries, in declaration order.
//
// On error the cluster is closed.
func (s *Scenario) Start(base Config) (*Cluster, Warm, error) {
	if err := s.Validate(); err != nil {
		return nil, Warm{}, err
	}
	cfg := base
	cfg.Seed = s.Seed
	cfg.Machines = s.Fleet.Machines
	cfg.CPUsPerMachine = s.Fleet.CPUsPerMachine
	cfg.PlatformBFraction = s.Fleet.PlatformBFraction
	cfg.Shards = s.Fleet.Shards
	cfg.TickInterval = s.Tick
	cfg.Params.MinSamplesPerTask = s.MinSamplesPerTask
	cfg.Params.ReportOnly = s.ReportOnly
	cfg.Faults, _ = ParseFaultPlan(s.Chaos) // Validate parsed it
	c := New(cfg)
	var w Warm
	err := s.place(c, false)
	if err == nil && s.Warmup > 0 {
		w.Specs, err = WarmUpSpecs(c, s.Warmup)
	}
	if err == nil {
		err = s.place(c, true)
	}
	if err != nil {
		c.Close()
		return nil, Warm{}, err
	}
	w.At, w.Incidents = c.Now(), len(c.Incidents())
	return c, w, nil
}

// place adds the entries whose Lands matches landing.
func (s *Scenario) place(c *Cluster, landing bool) error {
	for i := range s.Workload {
		w := &s.Workload[i]
		if w.Lands() != landing {
			continue
		}
		for _, d := range w.defs(c) {
			if err := c.AddJob(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// UnmarshalJSON decodes a scenario file: durations are Go duration
// strings ("10m"), and a key the file leaves out takes the file
// default — seed 1, tick 1s, min_samples_per_task 8, cpus_per_machine
// 16 — whatever s held before.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	type fields Scenario // the same fields without this method
	*s = Scenario{Seed: 1, Tick: time.Second, MinSamplesPerTask: 8, Fleet: Fleet{CPUsPerMachine: 16}}
	raw := struct {
		*fields
		Warmup string `json:"warmup"`
		Tick   string `json:"tick"`
	}{fields: (*fields)(s)}
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
	return errors.Join(set("warmup", raw.Warmup, &s.Warmup), set("tick", raw.Tick, &s.Tick))
}

// DecodeStrict decodes the one JSON document in src into v — a
// scenario file, a checks case or machine class — refusing what
// encoding/json lets through by default: a key v has no field for, a
// key an object names twice (the last would win silently), and
// anything after the document.
func DecodeStrict(src []byte, v any) error {
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
