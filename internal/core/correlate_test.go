package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

func TestCorrelationPerfectAntagonist(t *testing.T) {
	// Victim CPI is high exactly when the suspect burns CPU.
	cpi := []float64{3, 3, 3, 1, 1, 1}
	usage := []float64{2, 2, 2, 0, 0, 0}
	got := Correlation(cpi, usage, 2.0)
	// All usage mass is at c=3 > threshold 2: corr = 1 − 2/3 = 1/3.
	if !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Errorf("corr = %v, want 1/3", got)
	}
}

func TestCorrelationInnocentBystander(t *testing.T) {
	// Suspect busy only while victim CPI is low → negative score.
	cpi := []float64{3, 3, 1, 1}
	usage := []float64{0, 0, 2, 2}
	got := Correlation(cpi, usage, 2.0)
	// All mass at c=1 < 2: corr = 1/2 − 1 = −0.5.
	if !almostEqual(got, -0.5, 1e-12) {
		t.Errorf("corr = %v, want -0.5", got)
	}
}

func TestCorrelationMixed(t *testing.T) {
	cpi := []float64{4, 1}
	usage := []float64{1, 1}
	got := Correlation(cpi, usage, 2.0)
	// u normalized to 0.5 each: 0.5·(1−2/4) + 0.5·(1/2−1) = 0.25 − 0.25.
	if !almostEqual(got, 0, 1e-12) {
		t.Errorf("corr = %v, want 0", got)
	}
}

func TestCorrelationAtThresholdContributesNothing(t *testing.T) {
	cpi := []float64{2.0, 2.0}
	usage := []float64{1, 1}
	if got := Correlation(cpi, usage, 2.0); got != 0 {
		t.Errorf("corr = %v, want 0", got)
	}
}

func TestCorrelationDegenerateInputs(t *testing.T) {
	if Correlation(nil, nil, 2) != 0 {
		t.Error("empty should be 0")
	}
	if Correlation([]float64{1}, []float64{1, 2}, 2) != 0 {
		t.Error("length mismatch should be 0")
	}
	if Correlation([]float64{3}, []float64{1}, 0) != 0 {
		t.Error("zero threshold should be 0")
	}
	if Correlation([]float64{3, 3}, []float64{0, 0}, 2) != 0 {
		t.Error("idle suspect should be 0")
	}
}

func TestCorrelationBoundsProperty(t *testing.T) {
	// The score is always within [−1, 1], for any inputs.
	f := func(cpiRaw, usageRaw []uint16, thrRaw uint8) bool {
		n := len(cpiRaw)
		if len(usageRaw) < n {
			n = len(usageRaw)
		}
		if n == 0 {
			return true
		}
		cpi := make([]float64, n)
		usage := make([]float64, n)
		for i := 0; i < n; i++ {
			cpi[i] = float64(cpiRaw[i]) / 1000
			usage[i] = float64(usageRaw[i]) / 1000
		}
		thr := float64(thrRaw)/32 + 0.1
		c := Correlation(cpi, usage, thr)
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationNormalizesOverScoredPairs(t *testing.T) {
	// Pairs skipped by the scoring loop (non-positive CPI) must not
	// leave their usage mass in the denominator: a hostile/zero CPI
	// value slipping through would otherwise deflate every scored
	// pair's weight toward 0.
	cases := []struct {
		name      string
		cpi       []float64
		usage     []float64
		threshold float64
		want      float64
	}{
		{
			// The c=0 pair carries usage but is never scored; the result
			// must equal the two-pair series {3,3}/{1,1} → 1 − 2/3.
			name: "zero CPI pair excluded from denominator",
			cpi:  []float64{3, 0, 3}, usage: []float64{1, 1, 1},
			threshold: 2, want: 1.0 / 3.0,
		},
		{
			// A negative (corrupt) CPI pair with heavy usage likewise.
			name: "negative CPI pair excluded from denominator",
			cpi:  []float64{3, -5, 3}, usage: []float64{1, 4, 1},
			threshold: 2, want: 1.0 / 3.0,
		},
		{
			name: "all pairs scoreable: unchanged",
			cpi:  []float64{4, 1}, usage: []float64{1, 1},
			threshold: 2, want: 0,
		},
		{
			name: "only unscoreable pairs: zero",
			cpi:  []float64{0, -1}, usage: []float64{1, 1},
			threshold: 2, want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Correlation(tc.cpi, tc.usage, tc.threshold)
			if !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("corr = %v, want %v", got, tc.want)
			}
			if got < -1-1e-9 || got > 1+1e-9 {
				t.Errorf("corr = %v outside [-1, 1]", got)
			}
		})
	}
}

func TestCorrelationApproachesOneForExtremeAntagonist(t *testing.T) {
	// Massive CPI inflation coinciding with all suspect activity pushes
	// the score toward 1.
	cpi := []float64{1000, 1000, 1000}
	usage := []float64{5, 5, 5}
	got := Correlation(cpi, usage, 2.0)
	if got < 0.99 {
		t.Errorf("corr = %v, want ≈1", got)
	}
}

func buildSeries(vals []float64, step time.Duration) *timeseries.Series {
	s := timeseries.New()
	for i, v := range vals {
		_ = s.Append(day0.Add(time.Duration(i)*step), v)
	}
	return s
}

func TestRankSuspectsOrdering(t *testing.T) {
	victim := buildSeries([]float64{3, 3, 3, 1, 1, 1, 3, 3, 3, 3}, time.Minute)
	guilty := buildSeries([]float64{2, 2, 2, 0, 0, 0, 2, 2, 2, 2}, time.Minute)
	innocent := buildSeries([]float64{0, 0, 0, 2, 2, 2, 0, 0, 0, 0}, time.Minute)
	steady := buildSeries([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, time.Minute)

	suspects := []SuspectInput{
		{Task: model.TaskID{Job: "innocent", Index: 0}, Job: "innocent", Usage: innocent},
		{Task: model.TaskID{Job: "guilty", Index: 0}, Job: "guilty", Usage: guilty},
		{Task: model.TaskID{Job: "steady", Index: 0}, Job: "steady", Usage: steady},
		{Task: model.TaskID{Job: "nilusage", Index: 0}, Job: "nilusage", Usage: nil},
	}
	now := day0.Add(10 * time.Minute)
	ranked := RankSuspects(victim, 2.0, suspects, now, 10*time.Minute, time.Minute)
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d, want 3 (nil usage dropped)", len(ranked))
	}
	if ranked[0].Job != "guilty" {
		t.Errorf("top suspect = %s", ranked[0].Job)
	}
	if ranked[0].Correlation <= ranked[1].Correlation ||
		ranked[1].Correlation < ranked[2].Correlation {
		t.Errorf("not sorted: %+v", ranked)
	}
	if ranked[2].Job != "innocent" || ranked[2].Correlation >= 0 {
		t.Errorf("innocent bystander = %+v", ranked[2])
	}
}

func TestRankSuspectsWindowRestriction(t *testing.T) {
	// Activity outside the correlation window must not count. The
	// suspect was hot long ago; in the last 10 minutes it is idle.
	n := 30
	victimVals := make([]float64, n)
	suspectVals := make([]float64, n)
	for i := 0; i < n; i++ {
		victimVals[i] = 3 // always anomalous
		if i < 15 {
			suspectVals[i] = 2 // hot in the old window only
		}
	}
	victim := buildSeries(victimVals, time.Minute)
	suspect := buildSeries(suspectVals, time.Minute)
	now := day0.Add(time.Duration(n) * time.Minute)
	ranked := RankSuspects(victim, 2.0, []SuspectInput{
		{Task: model.TaskID{Job: "s", Index: 0}, Job: "s", Usage: suspect},
	}, now, 10*time.Minute, time.Minute)
	if len(ranked) != 1 {
		t.Fatal("suspect missing")
	}
	if ranked[0].Correlation != 0 {
		t.Errorf("stale activity scored %v, want 0", ranked[0].Correlation)
	}
}

func TestRankSuspectsTieBreakDeterministic(t *testing.T) {
	victim := buildSeries([]float64{3, 3, 3}, time.Minute)
	mk := func(name string) SuspectInput {
		return SuspectInput{
			Task:  model.TaskID{Job: model.JobName(name), Index: 0},
			Job:   model.JobName(name),
			Usage: buildSeries([]float64{1, 1, 1}, time.Minute),
		}
	}
	now := day0.Add(3 * time.Minute)
	r1 := RankSuspects(victim, 2.0, []SuspectInput{mk("zz"), mk("aa")}, now, 10*time.Minute, time.Minute)
	r2 := RankSuspects(victim, 2.0, []SuspectInput{mk("aa"), mk("zz")}, now, 10*time.Minute, time.Minute)
	if r1[0].Job != r2[0].Job || r1[0].Job != "aa" {
		t.Errorf("tie-break nondeterministic: %v vs %v", r1[0].Job, r2[0].Job)
	}
}

// TestRankSuspectsAllocBudget requires RankSuspects to allocate as
// often for 20 suspects as for 2: windows are read in place and every
// suspect's aligned pairs reuse the same buffers. The suspects differ
// in phase, sampling offset and missing minutes, and a victim with 30
// retained points is ranked over its last 10 minutes.
func TestRankSuspectsAllocBudget(t *testing.T) {
	const n = 30
	victimVals := make([]float64, n)
	for i := range victimVals {
		victimVals[i] = float64(1 + i%4)
	}
	victim := buildSeries(victimVals, time.Minute)
	suspects := make([]SuspectInput, 20)
	for k := range suspects {
		usage := timeseries.New()
		for i := 0; i < n; i++ {
			if (i+k)%5 == 0 {
				continue // a missing minute
			}
			_ = usage.Append(day0.Add(time.Duration(i)*time.Minute+time.Duration(k)*time.Second), float64((i*k)%3))
		}
		suspects[k] = SuspectInput{Task: model.TaskID{Job: "s", Index: k}, Job: "s", Usage: usage}
	}
	now := day0.Add(n * time.Minute)
	allocs := func(m int) float64 {
		return testing.AllocsPerRun(50, func() {
			_ = RankSuspects(victim, 2.0, suspects[:m], now, 10*time.Minute, time.Minute)
		})
	}
	if few, many := allocs(2), allocs(20); many != few {
		t.Errorf("RankSuspects allocates %v times at 20 suspects, %v at 2: want equal", many, few)
	}
}

// referencePairs is the inner-join merge the ranking used before it
// read suspects onto the victim's buckets, kept as the oracle for "no
// score moves": over [from, to), one pair per period bucket that both
// series hold a point in, the first point of the bucket on each side.
func referencePairs(victim, suspect *timeseries.Series, from, to time.Time,
	period time.Duration) (cpi, usage []float64) {

	a, b := victim.Window(from, to), suspect.Window(from, to)
	bucket := func(p timeseries.Point) int64 { return p.Time.Truncate(period).UnixNano() }
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch ka, kb := bucket(a[i]), bucket(b[j]); {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			cpi = append(cpi, a[i].Value)
			usage = append(usage, b[j].Value)
			for i < len(a) && bucket(a[i]) == ka {
				i++
			}
			for j < len(b) && bucket(b[j]) == ka {
				j++
			}
		}
	}
	return cpi, usage
}

// referenceRank scores every suspect of in over referencePairs and
// returns them in rank order.
func referenceRank(in IdentifyInput, score func(cpi, usage []float64) float64) []Suspect {
	var out []Suspect
	for _, s := range in.Suspects {
		if s.Usage == nil {
			continue
		}
		cpi, usage := referencePairs(in.VictimCPI, s.Usage, in.Now.Add(-in.Window), in.Now, in.Period)
		out = append(out, s.scored(score(cpi, usage)))
	}
	slices.SortFunc(out, rankCompare)
	return out
}

// gappySeries is one sample per minute for the given minutes at a
// random second, with about one minute in five missing and one in six
// holding a second sample later in the same minute.
func gappySeries(rng *rand.Rand, minutes int, value func() float64) *timeseries.Series {
	s := timeseries.New()
	for m := 0; m < minutes; m++ {
		if rng.Intn(5) == 0 {
			continue
		}
		ts := day0.Add(time.Duration(m)*time.Minute + time.Duration(rng.Intn(30))*time.Second)
		_ = s.Append(ts, value())
		if rng.Intn(6) == 0 {
			_ = s.Append(ts.Add(time.Duration(1+rng.Intn(29))*time.Second), value())
		}
	}
	return s
}

// TestIdentifiersMatchReferencePairs is the guard for "no score
// moves": both identifiers must rank exactly as scoring the inner-join
// pairs of referencePairs does, in the same order and with the same
// score bits. Victim and suspects both miss minutes and repeat a
// bucket, some usage and some CPI is exactly 0, the window starts and
// ends inside a bucket, and the period is a minute or 20 s. Reading a
// suspect's last point in a bucket instead of its first, keeping the
// victim's last, or leaving a bucket the suspect lacks at the previous
// suspect's value instead of 0 fails it.
func TestIdentifiersMatchReferencePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		cpi := func() float64 {
			if rng.Intn(10) == 0 {
				return 0
			}
			return 0.5 + 3*rng.Float64()
		}
		usage := func() float64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return 4 * rng.Float64()
		}
		in := IdentifyInput{
			Victim:    model.TaskID{Job: "victim"},
			VictimCPI: gappySeries(rng, 40, cpi),
			Threshold: 2, SpecMean: 1.2, SpecStddev: 0.4,
			Now:    day0.Add(time.Duration(10+rng.Intn(25))*time.Minute + time.Duration(rng.Intn(60))*time.Second),
			Window: 10 * time.Minute, Period: time.Minute,
		}
		if trial%2 == 1 {
			in.Period = 20 * time.Second
		}
		for k := rng.Intn(8); k >= 0; k-- {
			in.Suspects = append(in.Suspects, SuspectInput{
				Task: model.TaskID{Job: "s", Index: k}, Job: "s", Usage: gappySeries(rng, 40, usage)})
		}
		check := func(name string, got, want []Suspect) {
			t.Helper()
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].Task == want[i].Task &&
					math.Float64bits(got[i].Correlation) == math.Float64bits(want[i].Correlation)
			}
			if !same {
				t.Fatalf("trial %d, %s:\n got %+v\nwant %+v", trial, name, got, want)
			}
		}
		check("correlation", CorrelationIdentifier{}.Identify(in), referenceRank(in, func(c, u []float64) float64 {
			return Correlation(c, u, in.Threshold)
		}))
		// A fresh PANDA identifier has no evidence, so each score is
		// pandaAlpha times the round score; with SpecStddev 0 and the
		// threshold at the spec mean it falls back to Correlation.
		pi := NewPandaIdentifier(DefaultParams())
		if trial%3 == 2 {
			in.SpecStddev, in.SpecMean = 0, in.Threshold
		}
		check("panda", pi.Identify(in), referenceRank(in, func(c, u []float64) float64 {
			return pandaAlpha * pi.roundScore(c, u, in.Threshold, in.SpecMean, in.SpecStddev)
		}))
	}
}

func TestTopSuspects(t *testing.T) {
	ranked := []Suspect{
		{Job: "a", Correlation: 0.9},
		{Job: "b", Correlation: 0.5},
		{Job: "c", Correlation: 0.36},
		{Job: "d", Correlation: 0.2},
	}
	top := TopSuspects(ranked, 5, 0.35)
	if len(top) != 3 || top[2].Job != "c" {
		t.Errorf("top = %+v", top)
	}
	top = TopSuspects(ranked, 2, 0.35)
	if len(top) != 2 || top[1].Job != "b" {
		t.Errorf("top-2 = %+v", top)
	}
	if got := TopSuspects(nil, 3, 0.35); len(got) != 0 {
		t.Error("empty input should yield empty output")
	}
}

// TestTopSuspectsKeepsThresholdCorrelation: the paper reports suspects
// whose correlation is ≥ 0.35, so one scoring exactly the default
// threshold is kept and one a float step below it is not.
func TestTopSuspectsKeepsThresholdCorrelation(t *testing.T) {
	th := DefaultParams().CorrelationThreshold
	ranked := []Suspect{
		{Job: "at", Correlation: th},
		{Job: "below", Correlation: math.Nextafter(th, 0)},
	}
	top := TopSuspects(ranked, 5, th)
	if len(top) != 1 || top[0].Job != "at" {
		t.Errorf("TopSuspects at threshold %v = %+v, want only the suspect at it", th, top)
	}
}

func TestCorrelationCaseStudyShape(t *testing.T) {
	// Reconstruction of Case 1's shape: victim CPI rising to ≈5 while a
	// video-processing batch task's CPU spikes; correlation lands in
	// the 0.4-0.5 range like the paper's table (0.46).
	var cpi, usage []float64
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			cpi = append(cpi, 5.0)
			usage = append(usage, 6.5)
		} else {
			cpi = append(cpi, 2.4)
			usage = append(usage, 1.5)
		}
	}
	got := Correlation(cpi, usage, 2.0)
	if got < 0.3 || got > 0.6 {
		t.Errorf("case-1-like correlation = %v, want ≈0.4-0.5", got)
	}
}
