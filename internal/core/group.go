package core

import (
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// This file implements the §4.2/§9 future-work extension the paper
// sketches: "a group of antagonists that together cause significant
// performance interference, but which individually did not have much
// effect (e.g., a set of tasks that took turns filling the cache)…
// looking at groups of antagonists as a unit."
//
// A subtlety the paper does not spell out: the §4.2 correlation score
// cannot be used for groups by summing member usage. The score is a
// usage-weighted average of per-sample pain terms, so the score of a
// summed series is exactly a usage-weighted *convex combination* of
// the member scores — it can never exceed the best individual member,
// and a group of individually-weak suspects stays weak. Treating a
// group "as a unit" therefore needs a shape-sensitive statistic. We
// use the Pearson correlation between the group's summed CPU usage
// and the victim's CPI: for antagonists that take turns, each
// member's usage matches only its own share of the victim's bad
// minutes (low r), while the sum tracks the whole pain pattern
// (r → 1). Pearson is in [-1, 1] like the §4.2 score, so the same
// 0.35 enforcement threshold applies.
//
// Group search is greedy forward selection: seed with the best
// individual, repeatedly add the member that raises the group's
// Pearson r the most, stop when nothing improves it or the size cap
// is hit.

// GroupSuspect is the result of a group-antagonist search.
type GroupSuspect struct {
	// Members are the group's tasks, in the order greedy selection
	// added them (strongest contributor first). Each member's
	// Correlation field carries its *individual* Pearson r for
	// reporting.
	Members []Suspect
	// Correlation is the Pearson correlation of the group's summed
	// usage against the victim's CPI.
	Correlation float64
}

// alignedUsage buckets a suspect's usage series onto the victim's
// sample timeline; buckets with no suspect sample count as zero usage
// (absent means "not running", which matters when summing a group).
func alignedUsage(victimTimes []time.Time, window []timeseries.Point, period time.Duration) []float64 {
	byBucket := make(map[int64]float64, len(window))
	for _, p := range window {
		byBucket[p.Time.Truncate(period).UnixNano()] = p.Value
	}
	out := make([]float64, len(victimTimes))
	for i, t := range victimTimes {
		out[i] = byBucket[t.Truncate(period).UnixNano()]
	}
	return out
}

// FindAntagonistGroup searches for the suspect group whose combined
// CPU usage best explains the victim's CPI, using greedy forward
// selection up to maxMembers. It returns the best group found (which
// may be a single suspect). window/period as in RankSuspects, and so
// is the candidates' order (rankedBefore): suspects tied on r are
// taken by task name, never by the order they were offered in.
func FindAntagonistGroup(victimCPI *timeseries.Series, suspects []SuspectInput,
	now time.Time, window, period time.Duration, maxMembers int) GroupSuspect {

	if maxMembers < 1 {
		maxMembers = 1
	}
	from := now.Add(-window)
	victimPts := victimCPI.Window(from, now)
	if len(victimPts) < 3 {
		return GroupSuspect{} // Pearson needs variation to mean anything
	}
	victimVals := make([]float64, 0, len(victimPts))
	victimTimes := make([]time.Time, 0, len(victimPts))
	seen := make(map[int64]bool, len(victimPts))
	for _, p := range victimPts {
		key := p.Time.Truncate(period).UnixNano()
		if seen[key] {
			continue
		}
		seen[key] = true
		victimVals = append(victimVals, p.Value)
		victimTimes = append(victimTimes, p.Time)
	}

	// Pre-align every suspect once and score it individually.
	type candidate struct {
		suspect Suspect
		usage   []float64
	}
	cands := make([]candidate, 0, len(suspects))
	for _, s := range suspects {
		if s.Usage == nil {
			continue
		}
		u := alignedUsage(victimTimes, s.Usage.Window(from, now), period)
		r, err := stats.PearsonCorrelation(victimVals, u)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{suspect: s.scored(r), usage: u})
	}
	if len(cands) == 0 {
		return GroupSuspect{}
	}
	sort.Slice(cands, func(i, j int) bool { return rankedBefore(cands[i].suspect, cands[j].suspect) })

	group := GroupSuspect{}
	sum := make([]float64, len(victimVals))
	used := make([]bool, len(cands))
	for len(group.Members) < maxMembers {
		// After the seed member, each addition must buy a real
		// improvement; otherwise greedy sweeps in bystanders whose
		// usage nudges r by noise.
		minGain := 1e-9
		if len(group.Members) > 0 {
			minGain = 0.01
		}
		bestIdx := -1
		bestScore := group.Correlation
		var bestSum []float64
		for i, c := range cands {
			if used[i] {
				continue
			}
			trial := make([]float64, len(sum))
			for k := range trial {
				trial[k] = sum[k] + c.usage[k]
			}
			score, err := stats.PearsonCorrelation(victimVals, trial)
			if err != nil {
				continue
			}
			if score > bestScore+minGain {
				bestScore = score
				bestIdx = i
				bestSum = trial
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		group.Members = append(group.Members, cands[bestIdx].suspect)
		group.Correlation = bestScore
		sum = bestSum
	}
	return group
}
