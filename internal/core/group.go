package core

import (
	"slices"
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

// maxGroupSize bounds the group search the manager runs.
const maxGroupSize = 4

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

// FindAntagonistGroup searches for the suspect group whose combined
// CPU usage best explains the victim's CPI, using greedy forward
// selection up to maxMembers. It returns the best group found (which
// may be a single suspect). window/period as in RankSuspects, and so
// are the alignment (a suspect reads 0 in a victim bucket it has no
// sample in — absent means "not running", which matters when summing a
// group) and the candidates' order (rankCompare): suspects tied on r
// are taken by task name, never by the order they were offered in.
func FindAntagonistGroup(victimCPI *timeseries.Series, suspects []SuspectInput,
	now time.Time, window, period time.Duration, maxMembers int) GroupSuspect {

	if maxMembers < 1 {
		maxMembers = 1
	}
	victim := victimCPI.Bucket(now.Add(-window), now, period)
	n := victim.Len()
	if n < 3 {
		return GroupSuspect{} // Pearson needs variation to mean anything
	}

	// Read every suspect once, into one block, and score it individually.
	type candidate struct {
		suspect Suspect
		usage   []float64
	}
	cands := make([]candidate, 0, len(suspects))
	usage := make([]float64, len(suspects)*n)
	for _, s := range suspects {
		if s.Usage == nil {
			continue
		}
		u := victim.Read(usage[len(cands)*n:(len(cands)+1)*n], s.Usage)
		r, err := stats.PearsonCorrelation(victim.Values, u)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{suspect: s.scored(r), usage: u})
	}
	if len(cands) == 0 {
		return GroupSuspect{}
	}
	slices.SortFunc(cands, func(a, b candidate) int { return rankCompare(a.suspect, b.suspect) })

	group := GroupSuspect{Members: make([]Suspect, 0, min(maxMembers, len(cands)))}
	// sum is the group's usage; trial and best are the greedy loop's
	// two scratch buffers, swapped rather than reallocated.
	sums := make([]float64, 3*n)
	sum, trial, best := sums[:n], sums[n:2*n], sums[2*n:]
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
		for i, c := range cands {
			if used[i] {
				continue
			}
			for k := range trial {
				trial[k] = sum[k] + c.usage[k]
			}
			score, err := stats.PearsonCorrelation(victim.Values, trial)
			if err != nil {
				continue
			}
			if score > bestScore+minGain {
				bestScore = score
				bestIdx = i
				trial, best = best, trial
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		group.Members = append(group.Members, cands[bestIdx].suspect)
		group.Correlation = bestScore
		sum, best = best, sum
	}
	return group
}
