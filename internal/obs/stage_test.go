package obs

import (
	"math"
	"sync"
	"testing"
)

// testSet is a metric set with one handle of every kind Stage derives.
type testSet struct {
	C *Counter
	G *Gauge
	H *Histogram
	V *CounterVec
}

func newTestSet(r *Registry) *testSet {
	return &testSet{
		C: r.Counter("stage_total", ""),
		G: r.Gauge("stage_gauge", ""),
		// Unsorted on purpose: the registered layout is the sorted one,
		// and the staged copy must have that layout, not this literal.
		H: r.Histogram("stage_seconds", "", []float64{10, 1}),
		V: r.CounterVec("stage_vec_total", "", "action"),
	}
}

func TestCounterDrain(t *testing.T) {
	shared := newTestSet(NewRegistry())
	local, drain := Stage(shared)
	local.C.Add(5)
	if got := shared.C.Value(); got != 0 {
		t.Errorf("shared before drain = %v, want 0 (the local cell is private)", got)
	}
	drain()
	if got := shared.C.Value(); got != 5 {
		t.Errorf("shared = %v, want 5", got)
	}
	if got := local.C.Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
	drain() // empty drain is a no-op
	if got := shared.C.Value(); got != 5 {
		t.Errorf("shared after empty drain = %v, want 5", got)
	}
}

// TestStageSkipsNilHandles: a set with uninstrumented (nil) fields
// stages to a copy with the same fields nil — still safe to write, and
// nothing for the drain to do.
func TestStageSkipsNilHandles(t *testing.T) {
	shared := &testSet{C: NewRegistry().Counter("only_total", "")}
	local, drain := Stage(shared)
	if local.G != nil || local.H != nil || local.V != nil {
		t.Fatalf("nil shared handles staged as %+v, want nil", local)
	}
	local.C.Inc()
	local.G.Inc()
	local.H.Observe(1)
	local.V.With("x").Inc()
	drain()
	if got := shared.C.Value(); got != 1 {
		t.Errorf("shared = %v, want 1", got)
	}
}

func TestStageRejectsNonHandleFields(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a field that is not a metric handle must panic, not be silently left undrained")
		}
	}()
	Stage(&struct {
		C *Counter
		N *int
	}{C: &Counter{}, N: new(int)})
}

func TestGaugeDrainMovesDelta(t *testing.T) {
	shared := newTestSet(NewRegistry())
	shared.G.Set(10)
	local, drain := Stage(shared)
	local.G.Inc()
	local.G.Inc()
	local.G.Dec()
	drain()
	if got := shared.G.Value(); got != 11 {
		t.Errorf("shared = %v, want 11", got)
	}
	local.G.Add(-3)
	drain() // negative deltas move too
	if got := shared.G.Value(); got != 8 {
		t.Errorf("shared after negative drain = %v, want 8", got)
	}
	if got := local.G.Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
}

func TestHistogramDrain(t *testing.T) {
	shared := newTestSet(NewRegistry())
	local, drain := Stage(shared)
	local.H.Observe(0.5)
	local.H.Observe(5)
	local.H.Observe(100)
	drain()
	if got := shared.H.Count(); got != 3 {
		t.Errorf("shared count = %d, want 3", got)
	}
	if got := shared.H.Sum(); got != 105.5 {
		t.Errorf("shared sum = %v, want 105.5", got)
	}
	if got := local.H.Count(); got != 0 {
		t.Errorf("local count after drain = %d, want 0", got)
	}
	if got := local.H.Sum(); got != 0 {
		t.Errorf("local sum after drain = %v, want 0", got)
	}
	// Draining repeatedly accumulates.
	local.H.Observe(2)
	drain()
	if got := shared.H.Count(); got != 4 {
		t.Errorf("shared count after second drain = %d, want 4", got)
	}
}

// TestStagedSetRendersLikeDirectWrites: the same writes made through
// two staged copies and made on the registered handles give the same
// /metrics text — every observation lands in the bucket it would have
// landed in directly (the copy has the shared layout by construction;
// there is no mismatch left to detect), labelled series included.
func TestStagedSetRendersLikeDirectWrites(t *testing.T) {
	write := func(s *testSet, k float64) {
		s.C.Add(k)
		s.G.Add(k)
		s.G.Dec()
		for _, v := range []float64{0.5, 1, 5, 10, 100} {
			s.H.Observe(v * k)
		}
		s.V.With("cap").Add(k)
		s.V.With("").Inc()
	}
	directReg, stagedReg := NewRegistry(), NewRegistry()
	direct := newTestSet(directReg)
	write(direct, 1)
	write(direct, 2)

	shared := newTestSet(stagedReg)
	l1, d1 := Stage(shared)
	l2, d2 := Stage(shared)
	write(l1, 1)
	write(l2, 2)
	d1()
	d2()
	if got, want := stagedReg.Render(), directReg.Render(); got != want {
		t.Errorf("staged writes render differently from direct writes\nstaged:\n%s\ndirect:\n%s", got, want)
	}
}

func TestCounterVecDrain(t *testing.T) {
	r := NewRegistry()
	shared := &struct{ V, W *CounterVec }{
		V: r.CounterVec("drain_vec_total", "", "action"),
		W: r.CounterVec("drain_pair_total", "", "action", "reason"),
	}
	local, drain := Stage(shared)
	drain() // no series yet
	local.V.With("cap").Add(3)
	local.V.With("none").Add(7)
	local.W.With("", "").Inc() // all-empty label values round-trip too
	drain()
	if got := shared.V.With("cap").Value(); got != 3 {
		t.Errorf(`shared{action="cap"} = %v, want 3`, got)
	}
	if got := shared.V.With("none").Value(); got != 7 {
		t.Errorf(`shared{action="none"} = %v, want 7`, got)
	}
	if got := shared.W.With("", "").Value(); got != 1 {
		t.Errorf(`shared{action="",reason=""} = %v, want 1`, got)
	}
	if got := local.V.With("cap").Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
	// A label value first seen after a drain is picked up by the next.
	local.V.With("report").Inc()
	local.V.With("cap").Inc()
	drain()
	if got := shared.V.With("report").Value(); got != 1 {
		t.Errorf(`shared{action="report"} = %v, want 1`, got)
	}
	if got := shared.V.With("cap").Value(); got != 4 {
		t.Errorf(`shared{action="cap"} = %v, want 4`, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a staged vec must check label arity like the registered one")
		}
	}()
	local.V.With("a", "b")
}

// TestDrainUnderConcurrentWriters is the usage pattern the cluster
// relies on, made harsher: every writer updates its own staged copy
// while the coordinator is already draining, and no update is lost —
// what a drain misses the next one moves.
func TestDrainUnderConcurrentWriters(t *testing.T) {
	shared := newTestSet(NewRegistry())
	const writers, per = 8, 1000
	drains := make([]func(), writers)
	var wg sync.WaitGroup
	for i := range drains {
		var local *testSet
		local, drains[i] = Stage(shared)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				local.C.Inc()
				local.G.Add(2)
				local.G.Dec()
				local.H.Observe(float64(j % 20))
				local.V.With([]string{"cap", "none", "report"}[j%3]).Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false // one last sweep after every writer stopped
		default:
		}
		for _, drain := range drains {
			drain()
		}
	}
	const want = writers * per
	if got := shared.C.Value(); got != want {
		t.Errorf("counter = %v, want %d", got, want)
	}
	if got := shared.G.Value(); got != want {
		t.Errorf("gauge = %v, want %d", got, want)
	}
	if got := shared.H.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := shared.V.With("cap").Value() + shared.V.With("none").Value() + shared.V.With("report").Value(); got != want {
		t.Errorf("vec total = %v, want %d", got, want)
	}
}

// TestStageIdleDrainIsFree is the budget the fleet's commit phase is
// built on: draining a copy nobody wrote since the last drain allocates
// nothing and only loads. The loads-only half is checked where a store
// would show: a histogram whose writer is between its bucket add and
// its count add keeps that bucket (the drain saw count 0 and left), and
// a shared gauge holding −0 is not rewritten to +0 by an add of nothing.
func TestStageIdleDrainIsFree(t *testing.T) {
	shared := newTestSet(NewRegistry())
	local, drain := Stage(shared)
	if n := testing.AllocsPerRun(100, drain); n != 0 {
		t.Errorf("drain of a never-written copy: %v allocs, want 0", n)
	}
	local.C.Inc()
	local.G.Inc()
	local.H.Observe(1)
	local.V.With("cap").Inc()
	local.V.With("none").Inc()
	drain() // pairs the two label values; from here the copy is idle
	if n := testing.AllocsPerRun(100, drain); n != 0 {
		t.Errorf("drain of an idle copy with live series: %v allocs, want 0", n)
	}
	// A written copy folds without allocating as well, once its series
	// are paired.
	if n := testing.AllocsPerRun(100, func() {
		local.C.Inc()
		local.H.Observe(1)
		local.V.With("cap").Inc()
		drain()
	}); n != 0 {
		t.Errorf("steady-state write+drain: %v allocs, want 0", n)
	}

	local.H.counts[0].Add(1) // a writer mid-Observe: bucket added, count not yet
	shared.G.Set(math.Copysign(0, -1))
	drain()
	if got := local.H.counts[0].Load(); got != 1 {
		t.Errorf("idle drain touched a histogram bucket (now %d): it must stop at the count load", got)
	}
	if !math.Signbit(shared.G.Value()) {
		t.Error("idle drain added to the shared gauge")
	}
}
