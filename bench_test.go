// Package repro's top-level micro-benchmarks: the hot paths whose
// costs the paper quotes — the antagonist correlation analysis (§4.2:
// "about 100µs"), suspect ranking, outlier detection, spec
// aggregation, the machine-simulator tick and the Figure 7 GEV fit.
//
// Run them with:
//
//	go test -run '^$' -bench=. -benchmem .
//
// The paper's tables and figures are regenerated by cmd/experiments
// (go run ./cmd/experiments all) and their shapes asserted by the
// internal/experiments tests; bench_cluster_test.go holds the fleet
// step benchmarks.
package repro

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// BenchmarkCorrelationAnalysis measures one §4.2 antagonist
// correlation over a 10-minute window of minute samples. The paper
// quotes ≈100µs per analysis on 2011 hardware.
func BenchmarkCorrelationAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10 // 10-minute window, one sample per minute
	cpi := make([]float64, n)
	usage := make([]float64, n)
	for i := range cpi {
		cpi[i] = 1 + rng.Float64()*3
		usage[i] = rng.Float64() * 5
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += core.Correlation(cpi, usage, 2.0)
	}
	_ = sink
}

// BenchmarkRankSuspects measures a full ranking round against the 40+
// co-tenants of a busy machine (the Case 1 scenario's working set).
func BenchmarkRankSuspects(b *testing.B) {
	day0 := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(2))
	victim := timeseries.New()
	for i := 0; i < 20; i++ {
		_ = victim.Append(day0.Add(time.Duration(i)*time.Minute), 1+3*rng.Float64())
	}
	suspects := make([]core.SuspectInput, 40)
	for s := range suspects {
		series := timeseries.New()
		for i := 0; i < 20; i++ {
			_ = series.Append(day0.Add(time.Duration(i)*time.Minute), rng.Float64()*4)
		}
		suspects[s] = core.SuspectInput{
			Task:  model.TaskID{Job: model.JobName("job"), Index: s},
			Usage: series,
		}
	}
	now := day0.Add(20 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankSuspects(victim, 2.0, suspects, now, 10*time.Minute, time.Minute)
	}
}

// BenchmarkManagerObserve measures the per-sample cost of local
// outlier detection — this runs once per task per minute on every
// machine in the fleet, so it must be cheap. The stream stays within
// its spec, so no sample starts an analysis.
func BenchmarkManagerObserve(b *testing.B) {
	m := core.NewManager("m", core.DefaultParams(), nopCapper{})
	m.UpdateSpec(model.Spec{
		Job: "j", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 100, CPIMean: 1.8, CPIStddev: 0.16,
	})
	day0 := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(model.Sample{
			Job: "j", Task: model.TaskID{Job: "j", Index: i % 16},
			Platform:  model.PlatformA,
			Timestamp: day0.Add(time.Duration(i) * time.Minute),
			CPUUsage:  1, CPI: 1.8,
		})
	}
}

// nopCapper caps nothing; BenchmarkManagerObserve never reaches it.
type nopCapper struct{}

func (nopCapper) Cap(model.TaskID, float64) error { return nil }
func (nopCapper) Uncap(model.TaskID) error        { return nil }

// BenchmarkSpecBuilderAddSample measures sample ingestion in the
// aggregation pipeline (thousands per second per cluster).
func BenchmarkSpecBuilderAddSample(b *testing.B) {
	sb := core.NewSpecBuilder(core.DefaultParams())
	day0 := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sb.AddSample(model.Sample{
			Job: "j", Task: model.TaskID{Job: "j", Index: i % 1000},
			Platform:  model.PlatformA,
			Timestamp: day0,
			CPUUsage:  1, CPI: 1.5,
		})
	}
}

// BenchmarkMachineTick measures one simulator tick of a 40-task
// machine — the unit of cost that bounds how big a cluster the
// experiment harness can simulate.
func BenchmarkMachineTick(b *testing.B) {
	m := machine.New("bench", interference.DefaultMachine(model.PlatformA), 16, rand.New(rand.NewSource(3)))
	prof := &interference.Profile{
		DefaultCPI: 1.2, CacheFootprint: 1, MemBandwidth: 0.5,
		Sensitivity: 0.5, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	for i := 0; i < 40; i++ {
		id := model.TaskID{Job: "j", Index: i}
		if err := m.AddTask(id, prof, &workload.Steady{CPU: 0.3, Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
	day0 := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(day0.Add(time.Duration(i)*time.Second), time.Second)
	}
}

// BenchmarkGEVFit measures fitting a GEV to 10k samples (the Figure 7
// analysis over a day of one job's data).
func BenchmarkGEVFit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := stats.GEV{Mu: 1.73, Sigma: 0.133, Xi: -0.0534}
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = g.Rand(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitGEV(xs); err != nil {
			b.Fatal(err)
		}
	}
}
