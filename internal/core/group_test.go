package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// rotatorOwner is the take-turns schedule over each 12-minute round:
// rotator 0 runs on minutes 0–2, rotator 1 on 4–6, rotator 2 on 8–10,
// and nobody (-1) on the gap minutes 3, 7 and 11.
func rotatorOwner(min int) int {
	switch min % 12 {
	case 0, 1, 2:
		return 0
	case 4, 5, 6:
		return 1
	case 8, 9, 10:
		return 2
	default:
		return -1
	}
}

// takeTurnsScenario builds the §4.2 failure case: three batch tasks
// fill the cache in rotation (rotatorOwner). The victim hurts
// (CPI = painCPI) whenever any rotator runs and is healthy (CPI = 1.0)
// in the gaps. Each member's usage matches only its own third of the
// pain pattern — its individual correlation stays moderate — while the
// three usages summed reproduce the victim's CPI shape exactly.
func takeTurnsScenario(painCPI float64) (victim *timeseries.Series, suspects []SuspectInput) {
	victim = timeseries.New()
	series := []*timeseries.Series{timeseries.New(), timeseries.New(), timeseries.New()}
	for min := 0; min < 12; min++ {
		ts := day0.Add(time.Duration(min) * time.Minute)
		who := rotatorOwner(min)
		cpi := 1.0
		if who >= 0 {
			cpi = painCPI
		}
		_ = victim.Append(ts, cpi)
		for i, s := range series {
			u := 0.1
			if who == i {
				u = 4.0
			}
			_ = s.Append(ts, u)
		}
	}
	for i, s := range series {
		suspects = append(suspects, SuspectInput{
			Task:     model.TaskID{Job: "rotator", Index: i},
			Job:      "rotator",
			Class:    model.ClassBatch,
			Priority: model.PriorityBatch,
			Usage:    s,
		})
	}
	return victim, suspects
}

func TestGroupCorrelationBeatsIndividuals(t *testing.T) {
	victim, suspects := takeTurnsScenario(3.0)
	now := day0.Add(12 * time.Minute)

	group := FindAntagonistGroup(victim, suspects, now, 15*time.Minute, time.Minute, 4)
	if len(group.Members) != 3 {
		t.Fatalf("group = %+v, want all three rotators", group)
	}
	// Every member's individual Pearson r is moderate; the group's is
	// near-perfect (the sum reproduces the CPI shape).
	for _, m := range group.Members {
		if m.Correlation >= 0.5 {
			t.Errorf("member %v individually at %v, want moderate", m.Task, m.Correlation)
		}
	}
	if group.Correlation < 0.95 {
		t.Errorf("group corr = %v, want ≈1", group.Correlation)
	}
}

func TestFindAntagonistGroupDegenerate(t *testing.T) {
	empty := timeseries.New()
	g := FindAntagonistGroup(empty, nil, day0, 10*time.Minute, time.Minute, 4)
	if len(g.Members) != 0 || g.Correlation != 0 {
		t.Errorf("empty group = %+v", g)
	}
	// Victim data but no usable suspects.
	victim := buildSeries([]float64{3, 1, 3, 1}, time.Minute)
	g = FindAntagonistGroup(victim, []SuspectInput{{Task: model.TaskID{Job: "x"}, Usage: nil}},
		day0.Add(4*time.Minute), 10*time.Minute, time.Minute, 4)
	if len(g.Members) != 0 {
		t.Errorf("group from nil-usage suspects = %+v", g)
	}
	// Three points in two buckets: the guard counts buckets, so a
	// suspect that tracks both perfectly still forms no group.
	crowded := timeseries.New()
	for _, sec := range []int{0, 30, 60} {
		_ = crowded.Append(day0.Add(time.Duration(sec)*time.Second), float64(1+sec))
	}
	tracker := SuspectInput{Task: model.TaskID{Job: "t"}, Usage: buildSeries([]float64{1, 3}, time.Minute)}
	g = FindAntagonistGroup(crowded, []SuspectInput{tracker}, day0.Add(2*time.Minute), 10*time.Minute, time.Minute, 4)
	if len(g.Members) != 0 {
		t.Errorf("group over two victim buckets = %+v", g)
	}
	_, suspects := takeTurnsScenario(3.0)
	// Constant victim CPI: Pearson undefined → no group.
	flat := buildSeries([]float64{3, 3, 3, 3}, time.Minute)
	g = FindAntagonistGroup(flat, suspects, day0.Add(4*time.Minute), 10*time.Minute, time.Minute, 4)
	if g.Correlation > 0.01 {
		t.Errorf("flat-CPI group corr = %v, want ≈0", g.Correlation)
	}
	// maxMembers floor.
	vv, ss := takeTurnsScenario(3.0)
	g = FindAntagonistGroup(vv, ss, day0.Add(12*time.Minute), 15*time.Minute, time.Minute, 0)
	if len(g.Members) > 1 {
		t.Errorf("maxMembers=0 should clamp to 1, got %d", len(g.Members))
	}
}

func TestFindAntagonistGroupRespectsMaxMembers(t *testing.T) {
	victim, suspects := takeTurnsScenario(3.0)
	now := day0.Add(12 * time.Minute)
	g := FindAntagonistGroup(victim, suspects, now, 15*time.Minute, time.Minute, 2)
	if len(g.Members) > 2 {
		t.Errorf("group size %d exceeds max 2", len(g.Members))
	}
}

// TestFindAntagonistGroupIgnoresSuspectOrder: the manager offers
// suspects in map order, so co-tenants tied on r must be chosen by
// task name, not by position.
func TestFindAntagonistGroupIgnoresSuspectOrder(t *testing.T) {
	victim := buildSeries([]float64{3, 1, 3, 1, 3, 1}, time.Minute)
	mk := func(job model.JobName, index int, usage ...float64) SuspectInput {
		return SuspectInput{Task: model.TaskID{Job: job, Index: index}, Job: job, Usage: buildSeries(usage, time.Minute)}
	}
	x1, x2 := mk("x", 1, 2, 0, 2, 0, 2, 0), mk("x", 2, 2, 0, 2, 0, 2, 0)
	y0 := mk("y", 0, 1, 1, 2, 0, 1, 1)
	for _, in := range [][]SuspectInput{{x1, x2, y0}, {x2, x1, y0}} {
		g := FindAntagonistGroup(victim, in, day0.Add(6*time.Minute), 10*time.Minute, time.Minute, 1)
		if len(g.Members) != 1 || g.Members[0].Task != x1.Task {
			t.Errorf("suspects %v %v %v: group %+v, want x/1", in[0].Task, in[1].Task, in[2].Task, g.Members)
		}
	}
}

// findAntagonistGroupReference is the group search as it was before it
// shared the ranking's alignment, kept as the oracle: the victim's
// window deduplicated per bucket through a seen map, each suspect's
// usage bucketed through a map of its last point per bucket
// (alignedUsage), and a fresh trial slice per candidate per round.
func findAntagonistGroupReference(victimCPI *timeseries.Series, suspects []SuspectInput,
	now time.Time, window, period time.Duration, maxMembers int) GroupSuspect {

	alignedUsage := func(victimTimes []time.Time, window []timeseries.Point) []float64 {
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
	if maxMembers < 1 {
		maxMembers = 1
	}
	from := now.Add(-window)
	victimPts := victimCPI.Window(from, now)
	if len(victimPts) < 3 {
		return GroupSuspect{}
	}
	var victimVals []float64
	var victimTimes []time.Time
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
	type candidate struct {
		suspect Suspect
		usage   []float64
	}
	var cands []candidate
	for _, s := range suspects {
		if s.Usage == nil {
			continue
		}
		u := alignedUsage(victimTimes, s.Usage.Window(from, now))
		r, err := stats.PearsonCorrelation(victimVals, u)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{suspect: s.scored(r), usage: u})
	}
	if len(cands) == 0 {
		return GroupSuspect{}
	}
	sort.Slice(cands, func(i, j int) bool { return rankCompare(cands[i].suspect, cands[j].suspect) < 0 })
	group := GroupSuspect{}
	sum := make([]float64, len(victimVals))
	used := make([]bool, len(cands))
	for len(group.Members) < maxMembers {
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
				bestScore, bestIdx, bestSum = score, i, trial
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

// seededTakeTurns is a take-turns scenario drawn from rng: 2–4 rotators
// share the pain minutes of a 40-minute history in rounds, with noisy
// CPI and usage, plus 0–5 bystanders of random usage. Every series is
// sampled once a minute at a random second, and each suspect misses
// about one minute in four. The victim misses none, so its points and
// its buckets coincide.
func seededTakeTurns(rng *rand.Rand) (*timeseries.Series, []SuspectInput) {
	const minutes = 40
	rotators := 2 + rng.Intn(3)
	turn := 2 + rng.Intn(3)
	owner := func(m int) int {
		if k := m % ((turn + 1) * rotators); k%(turn+1) < turn {
			return k / (turn + 1)
		}
		return -1
	}
	victim := timeseries.New()
	for m := 0; m < minutes; m++ {
		cpi := 1 + 0.1*rng.Float64()
		if owner(m) >= 0 {
			cpi += 2
		}
		_ = victim.Append(day0.Add(time.Duration(m)*time.Minute+time.Duration(rng.Intn(60))*time.Second), cpi)
	}
	var suspects []SuspectInput
	bystanders := rng.Intn(6)
	for i := 0; i < rotators+bystanders; i++ {
		usage := timeseries.New()
		for m := 0; m < minutes; m++ {
			if rng.Intn(4) == 0 {
				continue // a missing minute
			}
			u := rng.Float64()
			if i < rotators && owner(m) == i {
				u += 4
			}
			_ = usage.Append(day0.Add(time.Duration(m)*time.Minute+time.Duration(rng.Intn(60))*time.Second), u)
		}
		suspects = append(suspects, SuspectInput{Task: model.TaskID{Job: "s", Index: i}, Job: "s", Usage: usage})
	}
	return victim, suspects
}

// TestFindAntagonistGroupMatchesReference requires the group search to
// pick the same members, in the same order and with the same score
// bits, as findAntagonistGroupReference on seeded take-turns scenarios.
// The reference keeps a suspect's last point per bucket and the search
// its first; a suspect sampled once a minute has one point per bucket,
// so the two agree. Its early exit counts raw victim points and the
// search's counts victim buckets; a victim sampled once a minute has as
// many of each.
func TestFindAntagonistGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		victim, suspects := seededTakeTurns(rng)
		now := day0.Add(time.Duration(5+rng.Intn(40))*time.Minute + time.Duration(rng.Intn(60))*time.Second)
		window := time.Duration(2+rng.Intn(20)) * time.Minute
		maxMembers := rng.Intn(5)
		got := FindAntagonistGroup(victim, suspects, now, window, time.Minute, maxMembers)
		want := findAntagonistGroupReference(victim, suspects, now, window, time.Minute, maxMembers)
		same := len(got.Members) == len(want.Members) &&
			math.Float64bits(got.Correlation) == math.Float64bits(want.Correlation)
		for i := 0; same && i < len(got.Members); i++ {
			same = got.Members[i].Task == want.Members[i].Task &&
				math.Float64bits(got.Members[i].Correlation) == math.Float64bits(want.Members[i].Correlation)
		}
		if !same {
			t.Fatalf("trial %d: group %+v, reference %+v", trial, got, want)
		}
	}
}

// TestFindAntagonistGroupAllocBudget requires the group search to
// allocate as often for 3 candidates and one round as for 23 candidates
// and four rounds: every suspect is read into one block and the greedy
// loop reuses its trial buffers.
func TestFindAntagonistGroupAllocBudget(t *testing.T) {
	victim, rotators := takeTurnsScenario(3.0)
	suspects := append([]SuspectInput(nil), rotators...)
	for k := 0; k < 20; k++ {
		usage := timeseries.New()
		for m := 0; m < 12; m++ {
			_ = usage.Append(day0.Add(time.Duration(m)*time.Minute), float64((m*k)%3))
		}
		suspects = append(suspects, SuspectInput{Task: model.TaskID{Job: "b", Index: k}, Job: "b", Usage: usage})
	}
	now := day0.Add(12 * time.Minute)
	allocs := func(in []SuspectInput, maxMembers int) float64 {
		return testing.AllocsPerRun(50, func() {
			_ = FindAntagonistGroup(victim, in, now, 15*time.Minute, time.Minute, maxMembers)
		})
	}
	if few, many := allocs(suspects[:3], 1), allocs(suspects, 4); many != few {
		t.Errorf("FindAntagonistGroup allocates %v times at 23 candidates and 4 rounds, %v at 3 and 1: want equal", many, few)
	}
}

func TestEnforcerDecideGroup(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	group := GroupSuspect{
		Correlation: 0.6,
		Members: []Suspect{
			{Task: model.TaskID{Job: "rotator", Index: 0}, Job: "rotator", Class: model.ClassBatch, Priority: model.PriorityBatch},
			{Task: model.TaskID{Job: "rotator", Index: 1}, Job: "rotator", Class: model.ClassBatch, Priority: model.PriorityBestEffort},
			{Task: lsTask, Job: "bigtable", Class: model.ClassLatencySensitive},
			{Task: victimTask, Job: "search"}, // never cap the victim
		},
	}
	ds := decideGroup(m, day0, victimTask, victimJob, group)
	if len(ds) != 2 {
		t.Fatalf("decisions = %+v, want 2 (only throttleable members)", ds)
	}
	for _, d := range ds {
		if d.Action != ActionCap {
			t.Errorf("decision = %+v", d)
		}
	}
	// Priority-dependent quotas apply per member.
	if q, _ := capper.quota(model.TaskID{Job: "rotator", Index: 0}); q != 0.1 {
		t.Errorf("batch member quota = %v", q)
	}
	if q, _ := capper.quota(model.TaskID{Job: "rotator", Index: 1}); q != 0.01 {
		t.Errorf("best-effort member quota = %v", q)
	}
	// All expire together via Tick.
	released := m.Tick(day0.Add(5 * time.Minute))
	if len(released) != 2 {
		t.Errorf("released = %v", released)
	}
}

func TestEnforcerDecideGroupReportOnly(t *testing.T) {
	p := DefaultParams()
	p.ReportOnly = true
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	group := GroupSuspect{
		Correlation: 0.5,
		Members: []Suspect{
			{Task: batchTask, Job: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch},
		},
	}
	ds := decideGroup(m, day0, victimTask, victimJob, group)
	if len(ds) != 1 || ds[0].Action != ActionReport {
		t.Errorf("decisions = %+v", ds)
	}
	if len(capper.caps) != 0 {
		t.Error("caps applied in report-only mode")
	}
}

func TestEnforcerDecideGroupSkipsCapped(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	member := Suspect{Task: batchTask, Job: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch}
	group := GroupSuspect{Correlation: 0.5, Members: []Suspect{member}}
	if ds := decideGroup(m, day0, victimTask, victimJob, group); len(ds) != 1 {
		t.Fatalf("first round = %+v", ds)
	}
	if ds := decideGroup(m, day0.Add(time.Minute), victimTask, victimJob, group); len(ds) != 0 {
		t.Errorf("second round re-capped: %+v", ds)
	}
}

// rotatorManager feeds 24 minutes of the take-turns schedule through a
// journalled manager: three rotators cause mild per-minute pain (CPI
// 1.5 against threshold 1.2) that no single suspect explains well
// enough to reach the 0.35 §4.2 bar. It returns the incidents Observe
// raised.
func rotatorManager(groupDetection bool) ([]Incident, *fakeCapper, *MemCapJournal) {
	p := DefaultParams()
	p.GroupDetection = groupDetection
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	journal := &MemCapJournal{}
	m.SetJournal(journal)
	m.RegisterJob(victimJob)
	m.RegisterJob(model.Job{Name: "rotator", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.UpdateSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.1,
	})
	var incs []Incident
	observe := func(s model.Sample) {
		if inc := m.Observe(s); inc != nil {
			incs = append(incs, *inc)
		}
	}
	for min := 0; min < 24; min++ {
		ts := day0.Add(time.Duration(min) * time.Minute)
		who := rotatorOwner(min)
		for i := 0; i < 3; i++ {
			u := 0.1
			if who == i {
				u = 4.0
			}
			observe(model.Sample{
				Job: "rotator", Task: model.TaskID{Job: "rotator", Index: i},
				Platform: model.PlatformA, Timestamp: ts, CPUUsage: u, CPI: 1.5,
			})
		}
		cpi := 1.0
		if who >= 0 {
			cpi = 1.5
		}
		observe(model.Sample{
			Job: "search", Task: model.TaskID{Job: "search", Index: 0},
			Platform: model.PlatformA, Timestamp: ts, CPUUsage: 1.2, CPI: cpi,
		})
	}
	return incs, capper, journal
}

func TestManagerGroupDetectionEndToEnd(t *testing.T) {
	// The plain enforcer does nothing on the rotator fixture; the group
	// hypothesis catches all three once GroupDetection is on.
	run := func(groupDetection bool) (caps int, sawGroup bool) {
		incs, capper, _ := rotatorManager(groupDetection)
		for _, inc := range incs {
			if inc.Group == nil {
				continue
			}
			sawGroup = true
			for _, d := range inc.GroupDecisions {
				if d.Action != ActionCap {
					t.Errorf("group decision = %+v", d)
				}
			}
		}
		return len(capper.caps), sawGroup
	}
	caps, sawGroup := run(false)
	if caps != 0 || sawGroup {
		t.Fatalf("without group detection: caps=%d group=%v; want none", caps, sawGroup)
	}
	caps, sawGroup = run(true)
	if !sawGroup {
		t.Fatal("group never detected")
	}
	if caps < 2 {
		t.Errorf("caps = %d, want the group capped", caps)
	}
}

// TestManagerGroupCapsListedOnce: the headline group cap is not
// repeated in GroupDecisions, so counting ActionCap across Decision and
// GroupDecisions, as the checks harness and the chaos tests do, counts
// each applied cap once.
func TestManagerGroupCapsListedOnce(t *testing.T) {
	incs, _, journal := rotatorManager(true)
	listed := 0
	for _, inc := range incs {
		for _, d := range append([]Decision{inc.Decision}, inc.GroupDecisions...) {
			if d.Action == ActionCap {
				listed++
			}
		}
	}
	applied := 0
	for _, en := range journal.Entries() {
		if en.Op == CapOpCap {
			applied++
		}
	}
	if applied == 0 || listed != applied {
		t.Errorf("decisions list %d caps; the journal records %d applied", listed, applied)
	}
}
