package interference

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/perfcnt"
	"repro/internal/stats"
)

var noon = time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC)

func victimProfile() *Profile {
	return &Profile{
		BaseCPI:        map[model.Platform]float64{model.PlatformA: 1.0, model.PlatformB: 1.3},
		CacheFootprint: 2,
		MemBandwidth:   1,
		Sensitivity:    1.0,
		BaseL3MPKI:     2,
	}
}

func antagonistProfile() *Profile {
	return &Profile{
		DefaultCPI:     1.5,
		CacheFootprint: 8,
		MemBandwidth:   6,
		Sensitivity:    0.3,
		BaseL3MPKI:     10,
	}
}

func TestPressureExcludesSelf(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	loads := []Load{{Profile: victimProfile(), Usage: 1.0}}
	if p := m.PressureOn(loads, 0); p != 0 {
		t.Errorf("solo pressure = %v, want 0", p)
	}
}

func TestPressureGrowsWithAntagonistUsage(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	v := victimProfile()
	a := antagonistProfile()
	low := m.PressureOn([]Load{{Profile: v, Usage: 1}, {Profile: a, Usage: 0.5}}, 0)
	high := m.PressureOn([]Load{{Profile: v, Usage: 1}, {Profile: a, Usage: 4}}, 0)
	if low <= 0 {
		t.Fatalf("low pressure = %v, want > 0", low)
	}
	if high <= low {
		t.Errorf("pressure not increasing: %v vs %v", low, high)
	}
	// Linear in usage.
	if !almostEqual(high/low, 8, 1e-9) {
		t.Errorf("pressure ratio = %v, want 8", high/low)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPressureIgnoresIdleAndNil(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	v := victimProfile()
	loads := []Load{{Profile: v, Usage: 1}, {Profile: nil, Usage: 3}, {Profile: antagonistProfile(), Usage: 0}}
	if p := m.PressureOn(loads, 0); p != 0 {
		t.Errorf("pressure = %v, want 0", p)
	}
}

func TestCPIInflatesWithPressure(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	v := victimProfile()
	a := antagonistProfile()
	solo := m.Evaluate([]Load{{Profile: v, Usage: 1}}, 0, noon, nil)
	crowded := m.Evaluate([]Load{{Profile: v, Usage: 1}, {Profile: a, Usage: 4}}, 0, noon, nil)
	if !almostEqual(solo.CPI, 1.0, 1e-9) {
		t.Errorf("solo CPI = %v, want base 1.0", solo.CPI)
	}
	if crowded.CPI <= solo.CPI {
		t.Errorf("CPI did not inflate: %v vs %v", crowded.CPI, solo.CPI)
	}
	if crowded.Pressure <= 0 {
		t.Error("pressure not reported")
	}
}

func TestPlatformDependentBaseCPI(t *testing.T) {
	v := victimProfile()
	a := DefaultMachine(model.PlatformA).Evaluate([]Load{{Profile: v, Usage: 1}}, 0, noon, nil)
	b := DefaultMachine(model.PlatformB).Evaluate([]Load{{Profile: v, Usage: 1}}, 0, noon, nil)
	if !almostEqual(a.CPI, 1.0, 1e-9) || !almostEqual(b.CPI, 1.3, 1e-9) {
		t.Errorf("platform CPIs = %v, %v; want 1.0, 1.3", a.CPI, b.CPI)
	}
	// Unknown platform falls back to DefaultCPI, then 1.0.
	unknown := Machine{Platform: "weird", CacheMB: 10, MemBWGBs: 10, ClockGHz: 2}
	if got := unknown.Evaluate([]Load{{Profile: victimProfile(), Usage: 1}}, 0, noon, nil).CPI; !almostEqual(got, 1.0, 1e-9) {
		t.Errorf("fallback CPI = %v", got)
	}
	if got := unknown.Evaluate([]Load{{Profile: antagonistProfile(), Usage: 1}}, 0, noon, nil).CPI; !almostEqual(got, 1.5, 1e-9) {
		t.Errorf("DefaultCPI = %v, want 1.5", got)
	}
}

func TestNilProfileEvaluate(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	r := m.Evaluate([]Load{{Profile: nil, Usage: 1}}, 0, noon, nil)
	if r.CPI != 1 || r.L3MPKI != 0 {
		t.Errorf("nil profile result = %+v", r)
	}
}

func TestL3MPKITracksCPI(t *testing.T) {
	// Figure 15(c): relative L3 MPI correlates with relative CPI.
	m := DefaultMachine(model.PlatformA)
	v := victimProfile()
	a := antagonistProfile()
	var cpis, mpkis []float64
	for _, usage := range []float64{0, 0.5, 1, 2, 3, 4, 5, 6} {
		r := m.Evaluate([]Load{{Profile: v, Usage: 1}, {Profile: a, Usage: usage}}, 0, noon, nil)
		cpis = append(cpis, r.CPI)
		mpkis = append(mpkis, r.L3MPKI)
	}
	r, err := stats.PearsonCorrelation(cpis, mpkis)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 {
		t.Errorf("CPI/MPKI correlation = %v, want ≈1 in noise-free model", r)
	}
}

func TestDiurnalFactor(t *testing.T) {
	p := victimProfile()
	p.DiurnalAmplitude = 0.04
	m := DefaultMachine(model.PlatformA)
	peak := m.Evaluate([]Load{{Profile: p, Usage: 1}}, 0, time.Date(2011, 11, 1, 18, 0, 0, 0, time.UTC), nil)
	trough := m.Evaluate([]Load{{Profile: p, Usage: 1}}, 0, time.Date(2011, 11, 1, 6, 0, 0, 0, time.UTC), nil)
	if !almostEqual(peak.CPI, 1.04, 1e-9) {
		t.Errorf("peak CPI = %v, want 1.04", peak.CPI)
	}
	if !almostEqual(trough.CPI, 0.96, 1e-9) {
		t.Errorf("trough CPI = %v, want 0.96", trough.CPI)
	}
	// Over a full day the CV should be ≈ amp/√2 ≈ 2.8%, same order as
	// the paper's 4%.
	var cpis []float64
	for h := 0; h < 24; h++ {
		r := m.Evaluate([]Load{{Profile: p, Usage: 1}}, 0, time.Date(2011, 11, 1, h, 0, 0, 0, time.UTC), nil)
		cpis = append(cpis, r.CPI)
	}
	cv := stats.CoefficientOfVariation(cpis)
	if cv < 0.02 || cv > 0.05 {
		t.Errorf("diurnal CV = %v, want 2-5%%", cv)
	}
}

func TestNoiseIsRightSkewedAndUnitMean(t *testing.T) {
	p := victimProfile()
	p.NoiseSigma = 0.08
	m := DefaultMachine(model.PlatformA)
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = m.Evaluate([]Load{{Profile: p, Usage: 1}}, 0, noon, rng).CPI
	}
	mean, _ := stats.MeanStdDev(xs)
	if !almostEqual(mean, 1.0, 0.01) {
		t.Errorf("noisy mean CPI = %v, want ≈1.0", mean)
	}
	sk, err := stats.Skewness(xs)
	if err != nil {
		t.Fatal(err)
	}
	if sk <= 0.3 {
		t.Errorf("skewness = %v, want clearly right-skewed", sk)
	}
	// The shape should be GEV: FitAll must prefer gev over normal.
	fits, err := stats.FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if fits[0].Dist.Name() == "normal" {
		t.Errorf("noise fitted best by normal; want skewed family, got order %v first", fits[0].Dist.Name())
	}
}

func TestLowUsageInflation(t *testing.T) {
	// Case 3's self-inflicted pattern: CPI rises as the task's own CPU
	// usage drops toward zero.
	p := &Profile{DefaultCPI: 3, LowUsageInflation: 2.5, LowUsageThreshold: 0.3}
	m := DefaultMachine(model.PlatformA)
	busy := m.Evaluate([]Load{{Profile: p, Usage: 1.0}}, 0, noon, nil).CPI
	slow := m.Evaluate([]Load{{Profile: p, Usage: 0.15}}, 0, noon, nil).CPI
	idleish := m.Evaluate([]Load{{Profile: p, Usage: 0.01}}, 0, noon, nil).CPI
	if !almostEqual(busy, 3, 1e-9) {
		t.Errorf("busy CPI = %v, want base 3", busy)
	}
	if slow <= busy || idleish <= slow {
		t.Errorf("CPI not rising as usage drops: %v, %v, %v", busy, slow, idleish)
	}
	// At usage→0 the inflation approaches the full factor: 3·(1+2.5)≈10.5,
	// matching Case 3's "fluctuating from about 3 to about 10".
	if idleish < 9 || idleish > 11 {
		t.Errorf("near-idle CPI = %v, want ≈10", idleish)
	}
}

func TestCPIFloor(t *testing.T) {
	p := &Profile{DefaultCPI: 0.01}
	m := DefaultMachine(model.PlatformA)
	if got := m.Evaluate([]Load{{Profile: p, Usage: 1}}, 0, noon, nil).CPI; got != 0.1 {
		t.Errorf("floor CPI = %v, want 0.1", got)
	}
}

// TestInstructionsAndCycles: the machine's clock turns CPU-seconds into
// the cycles and instructions its counters accrue.
func TestInstructionsAndCycles(t *testing.T) {
	m := Machine{ClockGHz: 2.0}
	var c perfcnt.Counters
	c.Accumulate(3, 2.0, 0, m.ClockGHz)
	if c.Cycles != 6e9 || c.Instructions != 3e9 {
		t.Errorf("cycles, instructions = %v, %v", c.Cycles, c.Instructions)
	}
	// CPI is recoverable: cycles / instructions.
	var r perfcnt.Counters
	r.Accumulate(5, 1.7, 0, m.ClockGHz)
	if got := r.CPI(); !almostEqual(got, 1.7, 1e-9) {
		t.Errorf("roundtrip CPI = %v", got)
	}
}

func TestLoadIndependenceOfVictimCPI(t *testing.T) {
	// §7.1: antagonism severity depends on the antagonist's pressure,
	// not on machine utilization. Adding many *low-footprint* tasks
	// (raising utilization) must inflate victim CPI far less than one
	// high-footprint antagonist at the same total CPU usage.
	m := DefaultMachine(model.PlatformA)
	v := victimProfile()
	quiet := &Profile{DefaultCPI: 1, CacheFootprint: 0.05, MemBandwidth: 0.02, Sensitivity: 0.1}
	// 10 quiet tasks using 0.4 CPU each = 4 CPUs of utilization.
	loads := []Load{{Profile: v, Usage: 1}}
	for i := 0; i < 10; i++ {
		loads = append(loads, Load{Profile: quiet, Usage: 0.4})
	}
	busy := m.Evaluate(loads, 0, noon, nil)
	// One antagonist using 4 CPUs.
	antag := m.Evaluate([]Load{{Profile: v, Usage: 1}, {Profile: antagonistProfile(), Usage: 4}}, 0, noon, nil)
	if busy.CPI >= antag.CPI {
		t.Errorf("utilization (%v) hurt more than antagonist (%v)", busy.CPI, antag.CPI)
	}
	if busy.CPI > 1.1 {
		t.Errorf("high-utilization CPI = %v, want near base", busy.CPI)
	}
}

func TestNUMASocketIsolation(t *testing.T) {
	m := DefaultMachine(model.PlatformA)
	m.Sockets = 2
	v := victimProfile()
	a := antagonistProfile()
	sameSocket := []Load{
		{Profile: v, Usage: 1, Socket: 0},
		{Profile: a, Usage: 4, Socket: 0},
	}
	crossSocket := []Load{
		{Profile: v, Usage: 1, Socket: 0},
		{Profile: a, Usage: 4, Socket: 1},
	}
	if p := m.PressureOn(sameSocket, 0); p <= 0 {
		t.Fatalf("same-socket pressure = %v, want > 0", p)
	}
	if p := m.PressureOn(crossSocket, 0); p != 0 {
		t.Errorf("cross-socket pressure = %v, want 0 (separate LLC and bus)", p)
	}
	// Single-domain machines ignore socket labels.
	m.Sockets = 1
	if p := m.PressureOn(crossSocket, 0); p <= 0 {
		t.Errorf("single-socket machine ignored co-runner: %v", p)
	}
}

func TestPressureNonNegativeProperty(t *testing.T) {
	f := func(usages []uint16, selfRaw uint8) bool {
		if len(usages) == 0 {
			return true
		}
		m := DefaultMachine(model.PlatformA)
		a := antagonistProfile()
		loads := make([]Load, len(usages))
		for i, u := range usages {
			loads[i] = Load{Profile: a, Usage: float64(u) / 1000}
		}
		self := int(selfRaw) % len(loads)
		p := m.PressureOn(loads, self)
		if p < 0 || math.IsNaN(p) {
			return false
		}
		r := m.Evaluate(loads, self, noon, nil)
		return r.CPI > 0 && !math.IsNaN(r.CPI) && r.L3MPKI >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGEVQuantileMatchesPow: the noise draw's exp(−ξ·log ln) is the
// old math.Pow(ln, −ξ) expression bit for bit, over 10⁵ seeded
// probabilities and the clamps' edges, so replacing Pow moved no
// seeded run.
func TestGEVQuantileMatchesPow(t *testing.T) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow has its own assembly on s390x")
	}
	const xi = -0.05
	pow := func(p float64) float64 {
		if p <= 0 {
			p = 1e-16
		}
		if p >= 1 {
			p = 1 - 1e-16
		}
		return (math.Pow(-math.Log(p), -xi) - 1) / xi
	}
	ps := []float64{0, 1e-16, 0.5, 1 - 1e-16, 1}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		if got, want := gevQuantile(p, xi), pow(p); got != want {
			t.Fatalf("gevQuantile(%v) = %v (%#x), Pow form %v (%#x)",
				p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestEvaluateAllMatchesEvaluate: one EvaluateAll call returns, field
// for field, what Evaluate returns for each task in index order, and
// leaves the noise stream where those calls leave it — on a two-socket
// machine with noisy, noiseless, diurnal, flat and nil profiles, at
// times across a day in two locations. The diurnal factor is checked
// against the Hour/Minute expression the day phase replaced.
func TestEvaluateAllMatchesEvaluate(t *testing.T) {
	m := DefaultMachine(model.PlatformB)
	m.Sockets = 2
	noisy := victimProfile()
	noisy.NoiseSigma, noisy.DiurnalAmplitude, noisy.TaskSkewSigma = 0.08, 0.04, 0.1
	flat := antagonistProfile()
	flat.NoiseSigma = 0.05 // DiurnalAmplitude 0
	lowUse := victimProfile()
	lowUse.LowUsageInflation, lowUse.LowUsageThreshold, lowUse.DiurnalAmplitude = 2, 0.5, 0.1
	loads := []Load{
		{Profile: noisy, Usage: 1.5, Base: noisy.BaseOn(m.Platform, 1.1)},
		{Profile: flat, Usage: 3, Socket: 1},
		{Profile: nil, Usage: 2},
		{Profile: lowUse, Usage: 0.2, Socket: 1},
		{Profile: noisy, Usage: 0, Base: noisy.BaseOn(m.Platform, 0.9)},
		{Profile: flat, Usage: 0.7},
	}
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	out := make([]Result, len(loads))
	ist := time.FixedZone("UTC+5:30", 5*3600+30*60)
	for i := 0; i < 24*60/7; i++ {
		now := noon.Add(time.Duration(i) * 7 * time.Minute)
		if i%2 == 1 {
			now = now.In(ist)
		}
		// The phase read once from t.Clock() is the per-call
		// Hour/Minute form it replaced.
		hour := float64(now.Hour()) + float64(now.Minute())/60
		if got, want := diurnalFactor(DayPhase(now), 0.04), 1+0.04*math.Sin((hour-12)/24*2*math.Pi); got != want {
			t.Fatalf("%v: diurnal factor %v, Hour/Minute form %v", now, got, want)
		}
		m.EvaluateAll(loads, DayPhase(now), a, out)
		for self := range loads {
			if want := m.Evaluate(loads, self, now, b); out[self] != want {
				t.Fatalf("%v task %d: EvaluateAll %+v, Evaluate %+v", now, self, out[self], want)
			}
		}
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Errorf("noise streams diverged: next draws %d and %d", x, y)
	}
}

// TestGEVNoiseTableAccuracy: the tabulated noise quantile is within
// 2e-6 of gevQuantile at every node and every cell midpoint of both
// halves, at 10⁶ uniform and 4·10⁵ log-uniform tail draws, and at p =
// 0, ½ and 1 − 2⁻⁵³; below the tables' last octave, and at p = 1, it
// is gevQuantile bit for bit.
func TestGEVNoiseTableAccuracy(t *testing.T) {
	const tol = 2e-6
	check := func(what string, p float64) {
		t.Helper()
		got, want := noiseQuantile(p), gevQuantile(p, noiseXi)
		if !(math.Abs(got-want) <= tol) {
			t.Fatalf("%s: noiseQuantile(%v) = %v, gevQuantile %v (error %.3g)", what, p, got, want, got-want)
		}
	}
	for n := 0; n <= noiseOctaves<<noiseCellBits; n++ {
		x := math.Float64frombits(uint64(noiseBase+n) << noiseShift)
		check("lower node", x)
		check("upper node", 1-x)
		if n < noiseOctaves<<noiseCellBits {
			mid := math.Float64frombits(uint64(noiseBase+n)<<noiseShift | 1<<(noiseShift-1))
			check("lower midpoint", mid)
			check("upper midpoint", 1-mid)
		}
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 1000000; i++ {
		check("uniform", rng.Float64())
	}
	for i := 0; i < 200000; i++ {
		x := math.Exp2(-1 - (noiseOctaves+1)*rng.Float64()) // log-uniform over the octaves
		check("lower tail", x)
		check("upper tail", 1-x)
	}
	for _, p := range []float64{0, 0.5, 1 - 0x1p-53} {
		check("edge", p)
	}

	fallback := []float64{0, 5e-324, 0x1p-1022, 1e-17, math.Nextafter(noiseMin, 0), 1}
	for i := 0; i < 10000; i++ {
		fallback = append(fallback, noiseMin*rng.Float64())
	}
	for _, p := range fallback {
		if got, want := noiseQuantile(p), gevQuantile(p, noiseXi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fallback: noiseQuantile(%v) = %v (%#x), gevQuantile %v (%#x)",
				p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// BenchmarkNoiseFactor is one noise draw, rng.Float64 included, through
// the exact quantile and through the table.
func BenchmarkNoiseFactor(b *testing.B) {
	for _, c := range []struct {
		name     string
		quantile func(float64) float64
	}{
		{"exact", func(p float64) float64 { return gevQuantile(p, noiseXi) }},
		{"table", noiseQuantile},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += 1 + 0.05*(c.quantile(rng.Float64())-0.577)
			}
			benchSink = sum
		})
	}
}

var benchSink float64
