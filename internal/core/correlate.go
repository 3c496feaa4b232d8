package core

import (
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

// Correlation implements the paper's antagonist-correlation score
// (§4.2) between a victim's CPI samples and one suspect's CPU usage,
// over time-aligned sample pairs:
//
//	normalize u so Σu = 1, then for each aligned pair (cᵢ, uᵢ):
//	  cᵢ > threshold: corr += uᵢ · (1 − threshold/cᵢ)
//	  cᵢ < threshold: corr += uᵢ · (cᵢ/threshold − 1)
//
// The result lies in [−1, 1]: positive when the suspect's CPU spikes
// coincide with victim CPI above its outlier threshold, negative when
// the suspect runs hot while the victim is fine. Each call costs
// O(n) — the paper reports ≈100 µs per analysis.
//
// Pairs where cᵢ equals the threshold contribute nothing. If the
// suspect used no CPU at all in the window the score is 0.
func Correlation(victimCPI, suspectUsage []float64, threshold float64) float64 {
	n := len(victimCPI)
	if n == 0 || len(suspectUsage) != n || threshold <= 0 {
		return 0
	}
	// Normalize usage over the pairs the scoring loop actually visits
	// (u > 0 AND c > 0): a pair skipped for a non-positive CPI must not
	// leave its usage mass in the denominator, or hostile/zero CPI
	// values deflate every scored pair's weight toward 0.
	var usum float64
	for i, u := range suspectUsage {
		if u > 0 && victimCPI[i] > 0 {
			usum += u
		}
	}
	if usum == 0 {
		return 0
	}
	var corr float64
	for i := 0; i < n; i++ {
		c := victimCPI[i]
		u := suspectUsage[i]
		if u <= 0 || c <= 0 {
			continue
		}
		u /= usum
		switch {
		case c > threshold:
			corr += u * (1 - threshold/c)
		case c < threshold:
			corr += u * (c/threshold - 1)
		}
	}
	return corr
}

// Suspect is one candidate antagonist with its correlation score.
type Suspect struct {
	Task        model.TaskID
	Job         model.JobName
	Class       model.JobClass
	Priority    model.Priority
	Correlation float64
}

// SuspectInput describes one co-located task offered to the ranker.
type SuspectInput struct {
	Task     model.TaskID
	Job      model.JobName
	Class    model.JobClass
	Priority model.Priority
	// Usage is the task's CPU-usage time series.
	Usage *timeseries.Series
}

// RankSuspects scores every co-located suspect against the victim's
// CPI series over [now−window, now) and returns suspects in
// descending correlation order. threshold is the victim's abnormal
// CPI threshold (spec mean + 2σ); period is the sampling period used
// for time alignment.
//
// All suspects are returned (the §6 case studies list the top-5
// including latency-sensitive ones); filtering by the correlation
// threshold and by throttle eligibility is the enforcer's job.
func RankSuspects(victimCPI *timeseries.Series, threshold float64,
	suspects []SuspectInput, now time.Time, window, period time.Duration) []Suspect {

	return rankAligned(victimCPI, suspects, now, window, period,
		func(_ model.TaskID, cpi, usage []float64) float64 { return Correlation(cpi, usage, threshold) })
}

// rankAligned is the ranking loop both identifiers share: it windows
// the victim's CPI and each suspect's usage to [now−window, now),
// aligns each pair at period, scores it with score, and returns the
// scored suspects in rankedBefore order. Suspects without a usage
// series are skipped.
func rankAligned(victimCPI *timeseries.Series, suspects []SuspectInput, now time.Time,
	window, period time.Duration, score func(task model.TaskID, cpi, usage []float64) float64) []Suspect {

	from := now.Add(-window)
	victimWindow := timeseries.New()
	for _, p := range victimCPI.Window(from, now) {
		_ = victimWindow.Append(p.Time, p.Value)
	}
	out := make([]Suspect, 0, len(suspects))
	for _, s := range suspects {
		if s.Usage == nil {
			continue
		}
		suspectWindow := timeseries.New()
		for _, p := range s.Usage.Window(from, now) {
			_ = suspectWindow.Append(p.Time, p.Value)
		}
		cpi, usage := timeseries.Align(victimWindow, suspectWindow, period)
		out = append(out, s.scored(score(s.Task, cpi, usage)))
	}
	sort.Slice(out, func(i, j int) bool { return rankedBefore(out[i], out[j]) })
	return out
}

// scored is s as a Suspect with the given score.
func (s SuspectInput) scored(score float64) Suspect {
	return Suspect{Task: s.Task, Job: s.Job, Class: s.Class, Priority: s.Priority, Correlation: score}
}

// rankedBefore is the suspect rank order: higher score first, ties
// broken by task name so the order never depends on input order.
func rankedBefore(a, b Suspect) bool {
	if a.Correlation != b.Correlation {
		return a.Correlation > b.Correlation
	}
	return a.Task.String() < b.Task.String()
}

// TopSuspects returns the best k suspects whose correlation meets
// minCorrelation, preserving rank order.
func TopSuspects(ranked []Suspect, k int, minCorrelation float64) []Suspect {
	out := make([]Suspect, 0, k)
	for _, s := range ranked {
		if len(out) == k {
			break
		}
		if s.Correlation >= minCorrelation {
			out = append(out, s)
		}
	}
	return out
}
