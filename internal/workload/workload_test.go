package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/interference"
	"repro/internal/stats"
)

var t0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func res(cpi float64) interference.Result { return interference.Result{CPI: cpi} }

func TestConstantLoad(t *testing.T) {
	if ConstantLoad(0.5).Level(t0) != 0.5 {
		t.Error("constant load wrong")
	}
	if ConstantLoad(2).Level(t0) != 1 || ConstantLoad(-1).Level(t0) != 0 {
		t.Error("clamping wrong")
	}
}

func TestDiurnalLoadShape(t *testing.T) {
	d := DiurnalLoad{Trough: 0.2, Peak: 0.9, PeakHour: 18}
	peak := d.Level(time.Date(2011, 11, 1, 18, 0, 0, 0, time.UTC))
	trough := d.Level(time.Date(2011, 11, 1, 6, 0, 0, 0, time.UTC))
	if !almostEqual(peak, 0.9, 1e-9) {
		t.Errorf("peak = %v", peak)
	}
	if !almostEqual(trough, 0.2, 1e-9) {
		t.Errorf("trough = %v", trough)
	}
	mid := d.Level(time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC))
	if !almostEqual(mid, 0.55, 1e-9) {
		t.Errorf("midpoint = %v", mid)
	}
	// Jitter stays within bounds and needs an RNG.
	dj := DiurnalLoad{Trough: 0.2, Peak: 0.9, PeakHour: 18, Jitter: 0.1, RNG: rand.New(rand.NewSource(1))}
	for h := 0; h < 24; h++ {
		l := dj.Level(time.Date(2011, 11, 1, h, 0, 0, 0, time.UTC))
		if l < 0 || l > 1 {
			t.Fatalf("jittered level out of range: %v", l)
		}
	}
}

func TestSteady(t *testing.T) {
	s := &Steady{CPU: 1.5, Threads: 3}
	cpu, th := s.Demand(t0)
	if cpu != 1.5 || th != 3 {
		t.Error("steady demand wrong")
	}
	if s.Done() {
		t.Error("steady done early")
	}
	s.Stop()
	if !s.Done() {
		t.Error("steady not done after Stop")
	}
}

func TestBatchTPSTracksIPS(t *testing.T) {
	// Figure 2: run a batch worker through alternating interference
	// levels; per-minute TPS and IPS, read as differences of the
	// cumulative totals, must correlate ≈ 1.
	b := NewBatch(2.0, 16, 2.6)
	now := t0
	var tps, ips []float64
	for min := 0; min < 120; min++ {
		cpi := 1.5
		if (min/10)%2 == 1 {
			cpi = 2.5 // interference phase
		}
		tx0, instr0 := b.Completed(), b.Instructions()
		for sec := 0; sec < 60; sec++ {
			b.Deliver(now, 2.0, time.Second, res(cpi))
			now = now.Add(time.Second)
		}
		tps = append(tps, (b.Completed()-tx0)/60)
		ips = append(ips, (b.Instructions()-instr0)/60)
	}
	r, err := stats.PearsonCorrelation(tps, ips)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.97 {
		t.Errorf("TPS/IPS correlation = %v, want ≥ 0.97", r)
	}
	if b.Completed() <= 0 {
		t.Error("no transactions completed")
	}
	// 2 CPU-sec/sec × 2.6 GHz at CPI 1.5 for the first minute.
	if want := 2.0 * 2.6e9 / 1.5; !almostEqual(ips[0], want, want*1e-9) {
		t.Errorf("first-minute IPS = %v, want %v", ips[0], want)
	}
}

func TestBatchFiniteWork(t *testing.T) {
	b := NewBatch(1, 4, 2.0)
	b.TotalTx = 100
	b.InstructionsPerTx = 1e9
	now := t0
	steps := 0
	for !b.Done() && steps < 10000 {
		b.Deliver(now, 1, time.Second, res(1.0))
		now = now.Add(time.Second)
		steps++
	}
	if !b.Done() {
		t.Fatal("batch never finished")
	}
	// 2e9 instr/sec at CPI 1 → 2 tx/sec → 50 seconds.
	if steps != 50 {
		t.Errorf("steps = %d, want 50", steps)
	}
	if b.Progress() != 1 {
		t.Errorf("progress = %v", b.Progress())
	}
	cpu, th := b.Demand(now)
	if cpu != 0 || th != 0 {
		t.Error("finished batch still demanding")
	}
}

func TestBatchDefaultsAndEndless(t *testing.T) {
	b := NewBatch(1, 4, 2.0)
	if b.Progress() != 0 {
		t.Error("endless progress should be 0")
	}
	if b.Done() {
		t.Error("endless batch done")
	}
}

func TestSearchTreePercentile(t *testing.T) {
	if got := percentile95([]float64{7}); got != 7 {
		t.Errorf("p95 of singleton = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile95(xs); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

// tickLatency runs one tick of s and returns the latency it reported:
// the difference of its cumulative latency across the tick.
func tickLatency(s *SearchTask, tick func()) float64 {
	before, _ := s.LatencyTotals()
	tick()
	after, _ := s.LatencyTotals()
	return after - before
}

func TestSearchLeafLatencyTracksCPI(t *testing.T) {
	// Figure 3: leaf latency ↔ CPI correlation ≈ 0.97.
	tree := NewSearchTree()
	leaf := NewSearchTask(TierLeaf, tree, ConstantLoad(0.7), 2.0, 1.0, nil)
	now := t0
	var cpis, lat []float64
	for i := 0; i < 200; i++ {
		cpi := 1.0 + 0.5*math.Sin(float64(i)/20)
		lat = append(lat, tickLatency(leaf, func() { leaf.Deliver(now, 1.4, time.Second, res(cpi)) }))
		tree.EndTick()
		cpis = append(cpis, cpi)
		now = now.Add(time.Second)
	}
	if _, ticks := leaf.LatencyTotals(); ticks != 200 {
		t.Errorf("latency ticks = %d, want 200", ticks)
	}
	r, err := stats.PearsonCorrelation(cpis, lat)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 { // noise-free: expect ≈1
		t.Errorf("leaf latency/CPI correlation = %v", r)
	}
}

func TestSearchRootLatencyDominatedByLowerTiers(t *testing.T) {
	// Figure 4(c): the root's latency barely depends on its own CPI.
	tree := NewSearchTree()
	leaves := make([]*SearchTask, 20)
	for i := range leaves {
		leaves[i] = NewSearchTask(TierLeaf, tree, ConstantLoad(0.7), 2.0, 1.0, nil)
	}
	mid := NewSearchTask(TierIntermediate, tree, ConstantLoad(0.7), 1.5, 1.1, nil)
	root := NewSearchTask(TierRoot, tree, ConstantLoad(0.7), 1.0, 1.2, nil)

	rng := rand.New(rand.NewSource(5))
	now := t0
	var rootCPIs, leafCPIs, rootLat []float64
	for i := 0; i < 300; i++ {
		leafCPI := 1.0 + 0.6*rng.Float64() // leaves see varying interference
		rootCPI := 1.2 + 0.6*rng.Float64() // root CPI varies independently
		for _, l := range leaves {
			l.Deliver(now, 1.4, time.Second, res(leafCPI))
		}
		mid.Deliver(now, 1.0, time.Second, res(1.1))
		rootLat = append(rootLat, tickLatency(root, func() { root.Deliver(now, 0.7, time.Second, res(rootCPI)) }))
		tree.EndTick()
		rootCPIs = append(rootCPIs, rootCPI)
		leafCPIs = append(leafCPIs, leafCPI)
		now = now.Add(time.Second)
	}
	// Skip the first few ticks while tier aggregates warm up.
	warm := 5
	rOwn, _ := stats.PearsonCorrelation(rootCPIs[warm:], rootLat[warm:])
	if rOwn > 0.5 {
		t.Errorf("root latency/own-CPI correlation = %v, want weak", rOwn)
	}
	// Leaf CPI from the *previous* tick drives the tiers above.
	rLeaf, _ := stats.PearsonCorrelation(leafCPIs[warm:len(leafCPIs)-2], rootLat[warm+2:])
	if rLeaf < 0.5 {
		t.Errorf("root latency/leaf-CPI correlation = %v, want strong", rLeaf)
	}
}

func TestSearchDemandFollowsLoad(t *testing.T) {
	tree := NewSearchTree()
	s := NewSearchTask(TierLeaf, tree, DiurnalLoad{Trough: 0.2, Peak: 1.0, PeakHour: 18}, 2.0, 1.0, nil)
	peakCPU, _ := s.Demand(time.Date(2011, 11, 1, 18, 0, 0, 0, time.UTC))
	troughCPU, _ := s.Demand(time.Date(2011, 11, 1, 6, 0, 0, 0, time.UTC))
	if peakCPU <= troughCPU {
		t.Errorf("peak %v ≤ trough %v", peakCPU, troughCPU)
	}
	if troughCPU <= 0 {
		t.Error("trough demand should keep a floor")
	}
	s.Stop()
	if cpu, th := s.Demand(t0); cpu != 0 || th != 0 || !s.Done() {
		t.Error("stopped task still demanding")
	}
}

func TestTierString(t *testing.T) {
	if TierLeaf.String() != "leaf" || TierIntermediate.String() != "intermediate" ||
		TierRoot.String() != "root" || Tier(9).String() != "tier?" {
		t.Error("tier strings wrong")
	}
}

func TestMapReduceTolerate(t *testing.T) {
	mr := NewMapReduce(3.0, ReactTolerate)
	now := t0
	// Normal running.
	for i := 0; i < 10; i++ {
		mr.Deliver(now, 3.0, time.Second, res(1.5))
		now = now.Add(time.Second)
	}
	if mr.CapEpisodes() != 0 {
		t.Error("episode counted without starvation")
	}
	// Starved for a while → one episode; keeps its thread count.
	for i := 0; i < 20; i++ {
		mr.Deliver(now, 0.1, time.Second, res(1.5))
		now = now.Add(time.Second)
	}
	if mr.CapEpisodes() != 1 {
		t.Errorf("episodes = %d", mr.CapEpisodes())
	}
	if _, th := mr.Demand(now); th != 8 {
		t.Errorf("tolerate threads = %d, want 8", th)
	}
	// Cap lifts → back to normal.
	for i := 0; i < 10; i++ {
		mr.Deliver(now, 3.0, time.Second, res(1.5))
		now = now.Add(time.Second)
	}
	if mr.Done() {
		t.Error("tolerating worker exited")
	}
	if mr.Work() <= 0 {
		t.Error("no work recorded")
	}
}

func TestMapReduceLameDuckThreadPattern(t *testing.T) {
	// Case 5 / Figure 12: ~8 threads normally, ~80 while capped,
	// 2 in lame-duck mode afterwards, then back to 8.
	mr := NewMapReduce(3.0, ReactLameDuck)
	mr.LameDuckFor = 2 * time.Minute
	now := t0
	step := func(granted float64, n int) {
		for i := 0; i < n; i++ {
			mr.Deliver(now, granted, time.Second, res(1.5))
			now = now.Add(time.Second)
		}
	}
	step(3.0, 10) // normal
	if _, th := mr.Demand(now); th != 8 {
		t.Fatalf("normal threads = %d", th)
	}
	step(0.1, 20) // capped
	if _, th := mr.Demand(now); th != 80 {
		t.Fatalf("capped threads = %d, want 80", th)
	}
	step(3.0, 3) // cap lifted: grants recover to demand → lame duck
	if !mr.InLameDuck() {
		t.Fatal("not in lame-duck after cap lifted")
	}
	if cpu, th := mr.Demand(now); th != 2 || cpu >= 3.0 {
		t.Fatalf("lame-duck demand = %v/%d", cpu, th)
	}
	step(0.6, 121) // ride out lame duck (2 min), grants meeting demand
	step(3.0, 5)   // fully back to normal service
	if mr.InLameDuck() {
		t.Fatal("lame duck never ended")
	}
	if _, th := mr.Demand(now); th != 8 {
		t.Errorf("threads after recovery = %d", th)
	}
}

func TestMapReduceExitOnSecondCap(t *testing.T) {
	// Case 6 / Figure 13: survives the first capping, exits during the
	// second.
	mr := NewMapReduce(3.0, ReactExit)
	now := t0
	step := func(granted float64, n int) {
		for i := 0; i < n && !mr.Done(); i++ {
			mr.Deliver(now, granted, time.Second, res(1.5))
			now = now.Add(time.Second)
		}
	}
	step(3.0, 10)
	step(0.1, 20) // first cap
	if mr.Done() {
		t.Fatal("exited during first cap")
	}
	if mr.CapEpisodes() != 1 {
		t.Fatalf("episodes = %d", mr.CapEpisodes())
	}
	step(3.0, 10) // recovery
	step(0.1, 20) // second cap
	if !mr.Done() {
		t.Fatal("survived second cap; should have exited")
	}
	if cpu, th := mr.Demand(now); cpu != 0 || th != 0 {
		t.Error("exited worker still demanding")
	}
}

// TestDeliverAllocFree: once warm, the Deliver methods of the workloads
// that keep application signals allocate nothing per call. Their totals
// are scalars, and the search tree reuses its per-tick accumulator and
// sorts it in place, so a fleet's workload memory does not grow with
// simulated time.
func TestDeliverAllocFree(t *testing.T) {
	tree := NewSearchTree()
	load := DiurnalLoad{Trough: 0.35, Peak: 0.95, PeakHour: 18, Jitter: 0.05, RNG: rand.New(rand.NewSource(1))}
	// Several leaves, so the tier's p95 sorts more than one value.
	leaves := make([]*SearchTask, 3)
	for i := range leaves {
		leaves[i] = NewSearchTask(TierLeaf, tree, load, 2.0, 1.0, rand.New(rand.NewSource(int64(i))))
	}
	b := NewBatch(2.0, 16, 2.6)
	mr := NewMapReduce(3.0, ReactLameDuck)
	cases := []struct {
		name string
		tick func()
	}{
		{"SearchTask", func() {
			for _, l := range leaves {
				l.Deliver(t0, 1.4, time.Second, res(1.2))
			}
			tree.EndTick()
		}},
		{"Batch", func() { b.Deliver(t0, 2.0, time.Second, res(1.5)) }},
		{"MapReduce", func() { mr.Deliver(t0, 3.0, time.Second, res(1.5)) }},
	}
	for _, c := range cases {
		c.tick() // the first tick sizes the tree's accumulators
		if n := testing.AllocsPerRun(1000, c.tick); n != 0 {
			t.Errorf("%s: %v allocations per Deliver, want 0", c.name, n)
		}
	}
}

func TestBimodalPhases(t *testing.T) {
	b := NewBimodal()
	cpu0, th := b.Demand(t0)
	if cpu0 != 0.3 || th != 6 {
		t.Errorf("phase 0 = %v/%d", cpu0, th)
	}
	cpu1, _ := b.Demand(t0.Add(10 * time.Minute))
	if cpu1 != 0.05 {
		t.Errorf("phase 1 = %v", cpu1)
	}
	cpu2, _ := b.Demand(t0.Add(20 * time.Minute))
	if cpu2 != 0.3 {
		t.Errorf("phase 2 = %v", cpu2)
	}
	b.Stop()
	if !b.Done() {
		t.Error("not done after Stop")
	}
}

func TestBimodalWithCaseThreeProfileSwingsCPI(t *testing.T) {
	// The emergent Case 3 pattern: CPI ≈3 busy, ≈10 near idle.
	p := CaseThreeProfile()
	m := interference.DefaultMachine("intel-westmere-2.6GHz")
	busy := m.Evaluate([]interference.Load{{Profile: p, Usage: 0.3}}, 0, t0, nil).CPI
	idle := m.Evaluate([]interference.Load{{Profile: p, Usage: 0.05}}, 0, t0, nil).CPI
	if !almostEqual(busy, 3.0, 0.2) {
		t.Errorf("busy CPI = %v, want ≈3", busy)
	}
	if idle < 8 || idle > 11 {
		t.Errorf("idle CPI = %v, want ≈10", idle)
	}
}
