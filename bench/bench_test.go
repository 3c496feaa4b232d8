package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {95, 100}, {100, 100}, {10, 10}, {1, 10}, {25, 30},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %g, want the lower middle value 2", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, // p50 of 19 leaves 9 beyond it
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesFollowPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g, want 1 2 3", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "loop.step", Start: 0, End: 100, Parent: -1},
		{Name: "machine.tick", Start: 10, End: 40, Parent: 0},
		{Name: "agent.tick", Start: 50, End: 70, Parent: 0},
		{Name: "pipeline.queue_publish", Start: 55, End: 60, Parent: 2},
	}
	self := selfTimes(spans)
	want := []int64{50, 30, 15, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := totalNs(spans, "machine.tick"); got != 30 {
		t.Errorf("totalNs = %d, want 30", got)
	}

	var nilTracer *tracer
	if idx := nilTracer.begin("x", -1, 0); idx != -1 {
		t.Errorf("nil tracer begin = %d, want -1", idx)
	}
	nilTracer.end(-1, 0) // must not panic

	tr := newTracer()
	root := tr.begin("round", -1, 7)
	child := tr.begin("core.spec_recompute", root, 7)
	tr.end(child, 3)
	tr.end(root, 1)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].N != 3 || tr.spans[0].ID != 7 {
		t.Errorf("recorded spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child span not nested in its parent: %+v", tr.spans)
	}
}

func TestStealAdjustment(t *testing.T) {
	// Windows that take 100 ms undisturbed and 8 ms more per stolen
	// tick, two of them also hit by something else entirely.
	steal := []int64{0, 3, 0, 12, 5, 0, 30, 7, 1, 0, 18, 2}
	wins := make([]window, len(steal))
	ys := make([]float64, len(steal))
	for i, s := range steal {
		wins[i] = window{steal: s}
		ys[i] = 100 + 8*float64(s)
	}
	ys[2] += 400
	ys[7] += 250
	slope := stealSlope(ys, wins)
	if math.Abs(slope-8) > 0.5 {
		t.Errorf("slope = %g ms per tick, want about 8", slope)
	}
	if got := median(stealAdjust(ys, wins, slope)); math.Abs(got-100) > 3 {
		t.Errorf("adjusted median = %g, want about 100 (unadjusted %g)", got, median(ys))
	}

	// A quiet host gives nothing to regress on.
	quiet := make([]window, 20)
	flat := make([]float64, 20)
	for i := range flat {
		flat[i] = 100 + float64(i%3)
	}
	if got := stealSlope(flat, quiet); got != 0 {
		t.Errorf("slope on a quiet host = %g, want 0", got)
	}
	// Steal that coincides with faster windows must not add time, and a
	// slope above a whole tick is not believed.
	if got := stealSlope([]float64{100, 90, 80, 70, 60, 50}, []window{{steal: 0}, {steal: 1}, {steal: 2}, {steal: 3}, {steal: 4}, {steal: 5}}); got != 0 {
		t.Errorf("negative slope not clamped: %g", got)
	}
	if got := stealSlope([]float64{0, 50, 100, 150, 200, 250}, []window{{steal: 0}, {steal: 1}, {steal: 2}, {steal: 3}, {steal: 4}, {steal: 5}}); got != tickMs {
		t.Errorf("slope = %g, want it clamped to %g", got, tickMs)
	}
	// The adjustment never takes more than three quarters of a window.
	if got := stealAdjust([]float64{100}, []window{{steal: 50}}, 10); got[0] != 25 {
		t.Errorf("floor = %g, want 25", got[0])
	}
}

var smallGen = genConfig{machines: 12, batch: 6, jobs: 4, zipf: 1.5, platformB: 0.4, rounds: 3}

func TestGeneratorIsSeeded(t *testing.T) {
	encode := func(seed int64) []byte {
		data, err := json.Marshal(generate(smallGen, seed).rounds)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := encode(7), encode(7), encode(8)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds generated different rounds")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical rounds")
	}
}

// TestReferenceMatchesSpecBuilder feeds the same generated samples to
// core.SpecBuilder and to the benchmark's reference, over three
// recompute intervals of different lengths so that the age-weighted
// history merge is exercised, with both the skewed and the even fleet.
func TestReferenceMatchesSpecBuilder(t *testing.T) {
	even := smallGen
	even.zipf = 0
	for _, cfg := range []genConfig{smallGen, even} {
		g := generate(cfg, 11)
		params := core.Params{MinSamplesPerTask: 1}
		builder := core.NewSpecBuilder(params)
		ref := newReference(g, params)
		round := 0
		for interval, length := range []int{1, 4, 2} {
			for i := 0; i < length; i++ {
				r := round % len(g.rounds)
				for _, batch := range g.rounds[r] {
					for _, s := range batch {
						if err := builder.AddSample(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				ref.published(r)
				round++
			}
			now := genEpoch.Add(time.Duration(interval+1) * time.Hour)
			pushed := builder.Recompute(now)
			want := ref.recompute(now)
			got := builder.Specs()
			if len(got) != len(want) || len(got) != len(g.keys) {
				t.Fatalf("interval %d: builder holds %d specs, reference %d, keys %d", interval, len(got), len(want), len(g.keys))
			}
			for i := range want {
				if diff := specMismatch(got[i], want[i]); diff != "" {
					t.Errorf("interval %d: %s", interval, diff)
				}
			}
			wantPushed := ref.robust(want)
			if len(pushed) != len(wantPushed) {
				t.Fatalf("interval %d: builder pushed %d specs, reference expects %d", interval, len(pushed), len(wantPushed))
			}
			for i := range wantPushed {
				if diff := specMismatch(pushed[i], wantPushed[i]); diff != "" {
					t.Errorf("interval %d pushed: %s", interval, diff)
				}
			}
		}
	}
	a := model.Spec{Job: "j", Platform: model.PlatformA, NumTasks: 5, NumSamples: 10, CPIMean: 1}
	b := a
	b.CPIMean = 1 + 1e-6
	if specMismatch(a, b) == "" {
		t.Error("a CPI mean off by 1e-6 must not pass the 1e-9 tolerance")
	}
	b.CPIMean = 1 + 1e-12
	if diff := specMismatch(a, b); diff != "" {
		t.Errorf("a CPI mean off by 1e-12 must pass: %s", diff)
	}
}

func testSpec() *benchSpec {
	return &benchSpec{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []metricDef{{Name: "layer.cost_ns", Unit: "ns", Better: "lower"}},
	}
}

func recordsOf(latency, rate []float64, digest string) []runRecord {
	var recs []runRecord
	for i := range latency {
		recs = append(recs, runRecord{
			Workload: "w", Seed: 1, Correct: true, Attempted: 10,
			Metrics: map[string]metric{
				"latency_ms": {Value: latency[i], Unit: "ms"},
				"rate":       {Value: rate[i], Unit: "1/s"},
			},
			Digest: map[string]string{"samples": digest},
		})
	}
	return recs
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, tc := range []struct {
		name          string
		aLat, bLat    []float64
		aRate, bRate  []float64
		wantLat, want string
	}{
		{"unchanged", steady, steady, steady, steady, verdictOK, verdictOK},
		{"latency up 20 %", steady, scale(steady, 1.2), steady, steady, verdictWorse, verdictOK},
		{"latency down 20 %", steady, scale(steady, 0.8), steady, steady, verdictOK, verdictOK},
		{"rate down 20 %", steady, steady, steady, scale(steady, 0.8), verdictOK, verdictWorse},
		{"rate up 20 %", steady, steady, steady, scale(steady, 1.2), verdictOK, verdictOK},
		{"within the bound", steady, scale(steady, 1.05), steady, scale(steady, 0.95), verdictOK, verdictOK},
		{"too noisy to tell", noisy, noisy, steady, steady, verdictUnresolved, verdictOK},
		{"noisy but clearly worse", noisy, scale(noisy, 1.5), steady, steady, verdictWorse, verdictOK},
	} {
		rows, _, problems := compareRecords(testSpec(), recordsOf(tc.aLat, tc.aRate, "d"), recordsOf(tc.bLat, tc.bRate, "d"))
		if len(problems) != 0 {
			t.Errorf("%s: unexpected problems %v", tc.name, problems)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", tc.name, len(rows))
		}
		if rows[0].verdict != tc.wantLat || rows[1].verdict != tc.want {
			t.Errorf("%s: verdicts %s/%s, want %s/%s", tc.name, rows[0].verdict, rows[1].verdict, tc.wantLat, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareCommandExitsOnWorseAndOnDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	data, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, recs []runRecord) string {
		path := filepath.Join(dir, name)
		for i := range recs {
			if err := appendRecord(path, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	base := write("a.json", recordsOf(steady, steady, "d1"))
	same := write("same.json", recordsOf(steady, steady, "d1"))
	slow := write("slow.json", recordsOf(scale(steady, 1.3), steady, "d1"))
	drift := write("drift.json", recordsOf(steady, steady, "d2"))
	failed := recordsOf(steady, steady, "d1")
	failed[0].Correct, failed[0].Failed = false, 3
	broken := write("broken.json", failed)

	run := func(b string) (string, error) {
		var out bytes.Buffer
		err := compareCommand([]string{"-benchmark", specPath, base, b}, &out)
		return out.String(), err
	}
	if out, err := run(same); err != nil {
		t.Errorf("identical files: %v\n%s", err, out)
	} else if !strings.Contains(out, "latency_ms") || !strings.Contains(out, verdictOK) {
		t.Errorf("table lacks the row or its verdict:\n%s", out)
	}
	if out, err := run(slow); err == nil || !strings.Contains(out, verdictWorse) {
		t.Errorf("30 %% slower must fail with a worse row: err=%v\n%s", err, out)
	}
	if out, err := run(drift); err == nil || !strings.Contains(out, "digest samples") {
		t.Errorf("a digest mismatch must fail: err=%v\n%s", err, out)
	}
	if out, err := run(broken); err == nil || !strings.Contains(out, "operations failed") {
		t.Errorf("a failed run must fail the comparison: err=%v\n%s", err, out)
	}
	if _, err := run(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}

// Toy sizes for the drift guard: every code path of every workload, in
// seconds.
var toyWorkloads = map[string]workloadConfig{
	"sim_fleet":      {sim: &simConfig{name: "sim_fleet", machines: 50, warmMinutes: 6, checkpointMinutes: 3}},
	"sim_antagonist": {sim: &simConfig{name: "sim_antagonist", machines: 50, warmMinutes: 6, checkpointMinutes: 4, antagonist: true}},
	"daemon_ingest": {daemon: &daemonConfig{
		name:           "daemon_ingest",
		gen:            genConfig{machines: 60, batch: 16, jobs: 12, zipf: 1.2, platformB: 0.3, rounds: 2},
		recomputeEvery: 2, checkpointRounds: 4,
	}},
	"daemon_specpush": {daemon: &daemonConfig{
		name:     "daemon_specpush",
		gen:      genConfig{machines: 40, batch: 16, jobs: 32, platformB: 0.5, rounds: 2},
		watchers: 50, recomputeEvery: 1, checkpointRounds: 4,
	}},
}

// TestBenchmarkJSONMatchesCode is the drift guard: it runs every
// workload BENCHMARK.json names at toy scale, end to end and traced,
// and fails if the file and the code disagree about a workload or a
// metric, or if a metric comes out unusable. It asserts no timing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defaults := defaultWorkloads()
	if len(spec.Workloads) != len(defaults) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(defaults))
	}
	for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range defs {
			if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	outDir := t.TempDir()
	layerSeen := make(map[string]bool)
	for _, w := range spec.Workloads {
		if _, ok := defaults[w.Name]; !ok {
			t.Errorf("workload %s is in BENCHMARK.json but not in the code", w.Name)
			continue
		}
		toy, ok := toyWorkloads[w.Name]
		if !ok {
			t.Errorf("workload %s has no toy configuration", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			rec, err := runOne(spec, w.Name, toy, runOpts{seed: 3, seconds: 0, trace: trace, outDir: outDir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			if _, err := rec.line(); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive on every workload", w.Name, d.Name, m.Value)
				}
				if trace && (m.Value != 0 || m.N > 0) {
					layerSeen[d.Name] = true
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
}
