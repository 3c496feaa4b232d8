package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// This file regenerates the §7 large-scale evaluation: the antagonist
// report rate, and Figures 14–16 built from capping trials.

func init() {
	register("sec7rate", sec7rate)
	register("fig14", fig14)
	register("fig15", fig15)
	register("fig16", fig16)
}

// sec7rate: antagonists are identified at ≈0.37 reports per
// machine-day across the fleet.
func sec7rate(o Options) (*Report, error) {
	machines := o.scaleInt(200, 20)
	// A small population of real antagonists lands on a fraction of
	// machines (severe interference is "relatively rare", §2).
	antagonists := machines / 100
	if antagonists < 1 {
		antagonists = 1
	}
	c, _, err := (&cluster.Scenario{
		Seed: o.Seed, Warmup: 15 * time.Minute, Tick: 2 * time.Second,
		MinSamplesPerTask: 10, ReportOnly: true,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 24},
		// Fleet mix: mostly well-behaved services, occasional heavy batch.
		Workload: []cluster.WorkloadEntry{
			{Kind: "quiet_service", Name: "services", Tasks: machines * 4, CPU: 0.8},
			{Kind: "batch", Name: "logproc", Tasks: machines * 2, CPU: 0.6, Priority: "batch"},
			{Kind: "antagonist", Name: "video", Tasks: antagonists, CPU: 7},
		},
	}).Start(cluster.Config{Params: core.Params{
		// Rate-limit analyses aggressively so one long-running
		// antagonist counts as one report stream, not hundreds.
		AnalysisRateLimit: 45 * time.Minute,
	}})
	if err != nil {
		return nil, err
	}
	simDays := 0.5 * o.Scale
	if simDays < 0.05 {
		simDays = 0.05
	}
	c.Run(time.Duration(simDays * 24 * float64(time.Hour)))
	reports := 0
	for _, inc := range c.Incidents() {
		if len(inc.Suspects) > 0 && inc.Suspects[0].Correlation >= 0.35 {
			reports++
		}
	}
	machineDays := float64(machines) * simDays
	rate := float64(reports) / machineDays

	rep := &Report{
		ID:         "sec7rate",
		Title:      "antagonist identification rate",
		PaperClaim: "0.37 reports per machine-day fleet-wide",
	}
	rep.AddMetric("reports/machine-day", rate, 0.37, "order-of-magnitude target")
	rep.AddMetric("reports", float64(reports), 0, "")
	rep.AddMetric("machine-days", machineDays, 0, "")
	return rep, nil
}

// splitTrials partitions trials into detected/undetected.
func detectedTrials(ts []trialResult) []trialResult {
	var out []trialResult
	for _, t := range ts {
		if t.detected {
			out = append(out, t)
		}
	}
	return out
}

// fig14: antagonism is not correlated with machine load.
func fig14(o Options) (*Report, error) {
	n := o.scaleInt(400, 40)
	with := runTrials(n, trialConfig{production: true, withAntagonist: true}, o.Seed)
	without := runTrials(n/2, trialConfig{production: true, withAntagonist: false}, o.Seed+7)

	det := detectedTrials(with)
	if len(det) < 5 {
		return nil, fmt.Errorf("fig14: only %d detections", len(det))
	}
	var utils, corrs, relCPIs []float64
	for _, t := range det {
		utils = append(utils, t.utilization*100)
		corrs = append(corrs, t.correlation)
		relCPIs = append(relCPIs, t.degradation())
	}
	rUtilCorr, _ := stats.PearsonCorrelation(utils, corrs)
	rUtilCPI, _ := stats.PearsonCorrelation(utils, relCPIs)

	// CDFs of observed victim CPI (relative to spec mean) with and
	// without an antagonist present.
	var withCDF, withoutCDF []float64
	for _, t := range with {
		withCDF = append(withCDF, t.relCPIObserved)
	}
	for _, t := range without {
		withoutCDF = append(withoutCDF, t.relCPIObserved)
	}
	medWith, _ := stats.Median(withCDF)
	medWithout, _ := stats.Median(withoutCDF)
	p95With, _ := stats.Quantile(withCDF, 0.95)

	rep := &Report{
		ID:    "fig14",
		Title: "antagonism vs machine load",
		PaperClaim: "antagonist reports occur at all utilization levels; neither " +
			"frequency nor damage correlates with load; CPI increase has a long " +
			"tail when an antagonist is present",
	}
	rep.AddMetric("corr(util, antagonist corr)", rUtilCorr, 0, "paper: ≈0 (no relation)")
	rep.AddMetric("corr(util, victim rel CPI)", rUtilCPI, 0, "paper: ≈0 (no relation)")
	rep.AddMetric("median rel CPI with antagonist", medWith, 0, "")
	rep.AddMetric("median rel CPI without", medWithout, 1, "")
	rep.AddMetric("p95 rel CPI with antagonist", p95With, 0, "long tail")
	rep.AddMetric("detections", float64(len(det)), 0, fmt.Sprintf("of %d trials", n))
	rep.Body = renderCDF("utilization at detection (%)", utils, 8) +
		renderCDF("relative CPI, antagonist present", withCDF, 8) +
		renderCDF("relative CPI, no antagonist", withoutCDF, 8)
	return rep, nil
}

// accuracy computes TP/FP rates over trials whose detection
// correlation meets the threshold.
func accuracy(ts []trialResult, threshold float64) (tpRate, fpRate float64, n int) {
	var tp, fp int
	for _, t := range ts {
		if !t.detected || t.correlation < threshold {
			continue
		}
		n++
		if t.truePositive() {
			tp++
		} else if t.falsePositive() {
			fp++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(tp) / float64(n), float64(fp) / float64(n), n
}

// meanRelativeCPI averages during/before over true positives at a
// threshold.
func meanRelativeCPI(ts []trialResult, threshold float64, tpOnly bool) float64 {
	var vals []float64
	for _, t := range ts {
		if !t.detected || t.correlation < threshold {
			continue
		}
		if tpOnly && !t.truePositive() {
			continue
		}
		vals = append(vals, t.relativeCPI())
	}
	return stats.Mean(vals)
}

// fig15: detection accuracy across both priority bands, plus the L3
// miss-rate correlation.
func fig15(o Options) (*Report, error) {
	n := o.scaleInt(400, 40)
	prod := runTrials(n/2, trialConfig{production: true, withAntagonist: true}, o.Seed)
	nonprod := runTrials(n/2, trialConfig{production: false, withAntagonist: true}, o.Seed+13)
	// Mix in antagonist-free trials: their detections (if any) are the
	// false-alarm pool.
	prod = append(prod, runTrials(n/6, trialConfig{production: true, withAntagonist: false}, o.Seed+29)...)
	nonprod = append(nonprod, runTrials(n/6, trialConfig{production: false, withAntagonist: false}, o.Seed+31)...)

	rep := &Report{
		ID:    "fig15",
		Title: "antagonist-detection accuracy, all jobs",
		PaperClaim: "true-positive rate is much better for production jobs; 0.35 is a " +
			"good threshold; throttling the top suspect gives relative CPI 0.52× " +
			"(production) and 0.82× (non-production); relative L3 MPI correlates " +
			"with relative CPI (r = 0.87)",
	}
	body := "threshold sweep (TP%/FP% of detections at or above threshold):\n"
	body += "  thr   prodTP  prodFP   nonTP   nonFP\n"
	for _, thr := range []float64{0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50} {
		ptp, pfp, _ := accuracy(prod, thr)
		ntp, nfp, _ := accuracy(nonprod, thr)
		body += fmt.Sprintf("  %.2f  %5.0f%%  %5.0f%%  %5.0f%%  %5.0f%%\n",
			thr, ptp*100, pfp*100, ntp*100, nfp*100)
	}
	ptp35, _, pn := accuracy(prod, 0.35)
	ntp35, _, nn := accuracy(nonprod, 0.35)
	rep.AddMetric("prod TP rate @0.35", ptp35, 0.7, fmt.Sprintf("%d detections", pn))
	rep.AddMetric("non-prod TP rate @0.35", ntp35, 0, fmt.Sprintf("lower than prod; %d detections", nn))
	rep.AddMetric("prod relative CPI (TP)", meanRelativeCPI(prod, 0.35, true), 0.52, "")
	rep.AddMetric("non-prod relative CPI (TP)", meanRelativeCPI(nonprod, 0.35, true), 0.82, "")

	// Figure 15(c): relative L3 MPI vs relative CPI over true positives
	// of both bands.
	var relCPI, relMPI []float64
	for _, t := range append(append([]trialResult{}, prod...), nonprod...) {
		if !t.detected || !t.truePositive() || t.mpkiBefore == 0 {
			continue
		}
		relCPI = append(relCPI, t.relativeCPI())
		relMPI = append(relMPI, t.mpkiDuring/t.mpkiBefore)
	}
	if len(relCPI) >= 3 {
		r0, _ := stats.PearsonCorrelation(relCPI, relMPI)
		rep.AddMetric("corr(rel L3 MPI, rel CPI)", r0, 0.87, fmt.Sprintf("%d TPs", len(relCPI)))
	}
	rep.Body = body
	return rep, nil
}

// fig16: production-band accuracy and victim benefit.
func fig16(o Options) (*Report, error) {
	n := o.scaleInt(400, 48)
	prod := runTrials(n, trialConfig{production: true, withAntagonist: true}, o.Seed)
	prod = append(prod, runTrials(n/4, trialConfig{production: true, withAntagonist: false}, o.Seed+41)...)

	rep := &Report{
		ID:    "fig16",
		Title: "accuracy and CPI improvement, production jobs",
		PaperClaim: "≈70% true positives above correlation 0.35, roughly flat in the " +
			"threshold; anomalies need ≥3σ CPI increases; relative CPI stays " +
			"below 1 across degradations; median victim relative CPI 0.63×",
	}

	// (a) threshold sweep.
	body := "threshold sweep (production):\n  thr    TP%    FP%   n\n"
	for _, thr := range []float64{0.35, 0.40, 0.45, 0.50} {
		tp, fp, cnt := accuracy(prod, thr)
		body += fmt.Sprintf("  %.2f  %4.0f%%  %4.0f%%  %3d\n", thr, tp*100, fp*100, cnt)
	}
	tp35, _, _ := accuracy(prod, 0.35)
	rep.AddMetric("TP rate @0.35", tp35, 0.7, "")

	// (b) TP rate bucketed by CPI increase in spec stddevs. The
	// correlation bar (0.35) already implies large σ excursions with a
	// tight production spec, so the buckets are terciles of the
	// measured σ distribution; the paper's shape claim is that weaker
	// CPI increases detect less reliably.
	var sigmas []float64
	for _, t := range prod {
		if t.detected && t.correlation >= 0.35 {
			sigmas = append(sigmas, t.sigmasAbove)
		}
	}
	q33, _ := stats.Quantile(sigmas, 1.0/3)
	q67, _ := stats.Quantile(sigmas, 2.0/3)
	type band struct {
		lo, hi float64
		name   string
	}
	bands := []band{
		{0, q33, fmt.Sprintf("<%.0fσ", q33)},
		{q33, q67, fmt.Sprintf("%.0f-%.0fσ", q33, q67)},
		{q67, 1e9, fmt.Sprintf(">%.0fσ", q67)},
	}
	body += "detection quality vs CPI increase (σ above spec mean, terciles):\n  band        TP%    n\n"
	var tpLow, tpHigh float64
	for i, bd := range bands {
		var tp, cnt int
		for _, t := range prod {
			if !t.detected || t.correlation < 0.35 {
				continue
			}
			if t.sigmasAbove < bd.lo || t.sigmasAbove >= bd.hi {
				continue
			}
			cnt++
			if t.truePositive() {
				tp++
			}
		}
		rate := 0.0
		if cnt > 0 {
			rate = float64(tp) / float64(cnt)
		}
		if i == 0 {
			tpLow = rate
		}
		if i == 2 {
			tpHigh = rate
		}
		body += fmt.Sprintf("  %-9s  %4.0f%%  %3d\n", bd.name, rate*100, cnt)
	}
	rep.AddMetric("TP rate, smallest σ tercile", tpLow, 0, "paper: unreliable at small increases")
	rep.AddMetric("TP rate, largest σ tercile", tpHigh, 0, "paper: high for large increases")

	// (c) relative CPI vs degradation buckets.
	body += "relative CPI vs degradation (CPI before / spec mean):\n  degr      relCPI   n\n"
	degrBands := []band{{1, 2, "1-2x"}, {2, 4, "2-4x"}, {4, 100, ">4x"}}
	for _, bd := range degrBands {
		var vals []float64
		for _, t := range prod {
			if !t.detected || t.correlation < 0.35 {
				continue
			}
			d := t.degradation()
			if d < bd.lo || d >= bd.hi {
				continue
			}
			vals = append(vals, t.relativeCPI())
		}
		body += fmt.Sprintf("  %-7s  %7.2f  %3d\n", bd.name, stats.Mean(vals), len(vals))
	}

	// (d) CDF of relative CPI over all detections ≥ 0.35 (true and
	// false positives alike, as the paper notes).
	var rels []float64
	for _, t := range prod {
		if t.detected && t.correlation >= 0.35 {
			rels = append(rels, t.relativeCPI())
		}
	}
	med, _ := stats.Median(rels)
	rep.AddMetric("median relative CPI", med, 0.63, "all detections")
	rep.Body = body + renderCDF("relative CPI CDF", rels, 10)
	return rep, nil
}
