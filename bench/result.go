package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place workloads, metric names,
// units, directions and regression bounds are written down. The
// benchmark reads units from it when it emits a metric, so the file and
// the code cannot name different things.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs workloads, end_to_end and per_layer", path)
	}
	return &spec, nil
}

// metric is one emitted value. N is the number of observations behind
// it (steps, rounds, calls); 0 when the value is a plain count or ratio.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects the metrics of one run against the names
// BENCHMARK.json allows for that kind of run.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metric
}

// newMetricSet starts every allowed metric at zero: a layer the
// workload never calls did no work and took no time.
func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: make(map[string]metricDef), values: make(map[string]metric)}
	for _, d := range defs {
		ms.defs[d.Name] = d
		ms.values[d.Name] = metric{Unit: d.Unit}
	}
	return ms
}

// set records a value; naming a metric BENCHMARK.json does not list is
// a bug in the benchmark.
func (ms *metricSet) set(name string, value float64, n int) {
	d, ok := ms.defs[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in BENCHMARK.json", name))
	}
	ms.values[name] = metric{Value: value, Unit: d.Unit, N: n}
}

// setP50 records the nearest-rank median of xs scaled by scale, with
// the sample count.
func (ms *metricSet) setP50(name string, xs []float64, scale float64) {
	ms.set(name, median(xs)*scale, len(xs))
}

// runRecord is everything one run of one workload produced; result
// files are arrays of these.
type runRecord struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest holds what must repeat exactly for equal seeds: counts,
	// simulated-time outcomes and content hashes.
	Digest map[string]string `json:"digest,omitempty"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// withheld over the measured windows of an end-to-end run.
	StealShare float64 `json:"steal_share"`
	// Windows are the end-to-end run's measured windows, unadjusted:
	// [wall ms, CPU ms, stolen clock ticks, samples folded] each.
	Windows [][4]float64 `json:"windows,omitempty"`
	// Failures says what each failed operation was.
	Failures []string `json:"failures,omitempty"`
	// Notes are observations that are not failures (tail percentiles,
	// shares of the wall a layer took).
	Notes []string `json:"notes,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runRecord) line() ([]byte, error) {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultValue, len(r.Metrics))}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// outcome accumulates a run's operation counts and failures.
type outcome struct {
	attempted, failed int64
	failures          []string
	notes             []string
	digest            map[string]string
	windows           []window
	// stealShare is the share of the machine's CPU time the hypervisor
	// withheld over the measured windows.
	stealShare float64
}

func (o *outcome) attempt(n int64) { o.attempted += n }

// fail counts n failed operations and keeps a bounded list of reasons.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if len(o.failures) < 32 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) setDigest(key, value string) {
	if o.digest == nil {
		o.digest = make(map[string]string)
	}
	o.digest[key] = value
}

// appendRecord adds rec to the JSON array in path, creating the file if
// needed, so repetitions accumulate in one result file.
func appendRecord(path string, rec *runRecord) error {
	var recs []runRecord
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	recs = append(recs, *rec)
	// One record per line: small enough to diff, plain enough to grep.
	var buf bytes.Buffer
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == 0 {
			sep = "[\n"
		}
		buf.WriteString(sep)
		buf.Write(line)
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func loadRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
