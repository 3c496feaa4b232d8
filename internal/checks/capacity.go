package checks

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
)

// CapacitySchemaVersion versions the capacity-search result JSON.
const CapacitySchemaVersion = 1

// CapacityConfig bounds a capacity binary search. Zero values get
// defaults from withDefaults.
type CapacityConfig struct {
	// MinMachines / MaxMachines bound the search (inclusive).
	MinMachines int
	MaxMachines int
	// ProbeTicks is the number of timed Steps per probe; WarmupTicks
	// run untimed first so scheduler placement and first-tick
	// allocation spikes do not pollute the measurement.
	ProbeTicks  int
	WarmupTicks int
	// Tick is the simulated tick interval; sustaining real time means
	// stepping at least 1/Tick steps per wall second.
	Tick time.Duration
	// CPUsPerMachine sizes the simulated machines.
	CPUsPerMachine int
	// Workers is the cluster worker count (0 = GOMAXPROCS).
	Workers int
	Seed    int64
	Log     func(format string, args ...any)
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.MinMachines <= 0 {
		c.MinMachines = 64
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = c.MinMachines
	}
	if c.ProbeTicks <= 0 {
		c.ProbeTicks = 60
	}
	if c.WarmupTicks < 0 {
		c.WarmupTicks = 0
	} else if c.WarmupTicks == 0 {
		c.WarmupTicks = 10
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.CPUsPerMachine <= 0 {
		c.CPUsPerMachine = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c CapacityConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// CapacityProbe records one probe of the search.
type CapacityProbe struct {
	Machines       int     `json:"machines"`
	StepsPerSec    float64 `json:"steps_per_sec"`
	RealtimeFactor float64 `json:"realtime_factor"`
	Sustained      bool    `json:"sustained"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// CapacityResult is the output of `cpi2bench capacity`.
type CapacityResult struct {
	SchemaVersion  int     `json:"schema_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	MinMachines    int     `json:"min_machines"`
	MaxMachines    int     `json:"max_machines"`
	CPUsPerMachine int     `json:"cpus_per_machine"`
	Workers        int     `json:"workers"`
	TickSeconds    float64 `json:"tick_seconds"`
	ProbeTicks     int     `json:"probe_ticks"`
	WarmupTicks    int     `json:"warmup_ticks"`
	Seed           int64   `json:"seed"`
	// LargestSustained is the largest probed machine count whose
	// realtime factor was ≥ 1, or 0 when even MinMachines fell short.
	LargestSustained int             `json:"largest_sustained"`
	Probes           []CapacityProbe `json:"probes"`
}

// WriteFile writes the result JSON (indented, trailing newline) to path.
func (r *CapacityResult) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Summary renders a one-line human summary of the search.
func (r *CapacityResult) Summary() string {
	return fmt.Sprintf("capacity: %d machines sustained in real time (searched [%d, %d], %d probes)",
		r.LargestSustained, r.MinMachines, r.MaxMachines, len(r.Probes))
}

// SearchCapacity binary-searches the largest machine count this host
// steps in real time (steps/sec × tick ≥ 1) under a representative
// mixed fleet. Throughput is assumed to decrease with fleet size — the
// usual binary-search-on-a-predicate contract. The first probe is at
// MinMachines; if even that is not sustained the result is 0.
func SearchCapacity(cfg CapacityConfig) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	if cfg.MinMachines > cfg.MaxMachines {
		return nil, fmt.Errorf("checks: capacity: min %d > max %d", cfg.MinMachines, cfg.MaxMachines)
	}
	res := &CapacityResult{
		SchemaVersion:  CapacitySchemaVersion,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		MinMachines:    cfg.MinMachines,
		MaxMachines:    cfg.MaxMachines,
		CPUsPerMachine: cfg.CPUsPerMachine,
		Workers:        cfg.Workers,
		TickSeconds:    cfg.Tick.Seconds(),
		ProbeTicks:     cfg.ProbeTicks,
		WarmupTicks:    cfg.WarmupTicks,
		Seed:           cfg.Seed,
	}
	probe := func(machines int) (CapacityProbe, error) {
		p, err := capacityProbe(cfg, machines)
		if err != nil {
			return p, err
		}
		res.Probes = append(res.Probes, p)
		cfg.logf("probe %d machines: %.1f steps/sec, rt×%.2f, sustained=%v",
			p.Machines, p.StepsPerSec, p.RealtimeFactor, p.Sustained)
		return p, nil
	}

	first, err := probe(cfg.MinMachines)
	if err != nil {
		return nil, err
	}
	if !first.Sustained {
		res.LargestSustained = 0
		return res, nil
	}
	lo, hi := cfg.MinMachines, cfg.MaxMachines
	if lo < hi {
		top, err := probe(hi)
		if err != nil {
			return nil, err
		}
		if top.Sustained {
			lo = hi
		} else {
			hi--
			for lo < hi {
				mid := lo + (hi-lo+1)/2
				p, err := probe(mid)
				if err != nil {
					return nil, err
				}
				if p.Sustained {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
		}
	}
	res.LargestSustained = lo
	return res, nil
}

// capacityProbe builds a mixed fleet at the given size and times
// ProbeTicks steps. The mix scales with machine count: a quiet
// service, a best-effort batch tier, and a small antagonist tier so
// detection and correlation stay on the hot path.
func capacityProbe(cfg CapacityConfig, machines int) (CapacityProbe, error) {
	sc := cluster.Scenario{
		Seed:  cfg.Seed,
		Tick:  cfg.Tick,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: cfg.CPUsPerMachine},
		Workload: []cluster.WorkloadEntry{
			{Kind: "quiet_service", Name: "cap-quiet", Tasks: machines, CPU: 0.8},
			{Kind: "batch", Name: "cap-batch", Tasks: machines/2 + 1, CPU: 0.5},
			{Kind: "antagonist", Name: "cap-antagonist", Tasks: machines/8 + 1, CPU: 7},
		},
	}
	c, _, err := sc.Start(cluster.Config{Workers: cfg.Workers})
	if err != nil {
		return CapacityProbe{}, err
	}
	defer c.Close()
	for i := 0; i < cfg.WarmupTicks; i++ {
		c.Step()
	}
	start := time.Now()
	for i := 0; i < cfg.ProbeTicks; i++ {
		c.Step()
	}
	wall := time.Since(start)
	p := CapacityProbe{Machines: machines, WallSeconds: wall.Seconds()}
	if wall > 0 {
		p.StepsPerSec = float64(cfg.ProbeTicks) / wall.Seconds()
		p.RealtimeFactor = p.StepsPerSec * cfg.Tick.Seconds()
	}
	p.Sustained = p.RealtimeFactor >= 1
	return p, nil
}
