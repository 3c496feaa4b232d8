package pipeline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// gateSink is a SampleSink with a switchable outage: while down it
// errors, while up it records batches in arrival order.
type gateSink struct {
	mu      sync.Mutex
	down    bool
	batches [][]model.Sample
	fails   int // count of rejected publishes
}

func (g *gateSink) Publish(samples []model.Sample) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		g.fails++
		return errors.New("gate down")
	}
	cp := make([]model.Sample, len(samples))
	copy(cp, samples)
	g.batches = append(g.batches, cp)
	return nil
}

func (g *gateSink) setDown(d bool) {
	g.mu.Lock()
	g.down = d
	g.mu.Unlock()
}

func (g *gateSink) received() [][]model.Sample {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]model.Sample(nil), g.batches...)
}

// oneBatch makes a single-sample batch whose task index tags its
// position in the publish sequence.
func oneBatch(i int) []model.Sample {
	return []model.Sample{{
		Job: "j", Task: model.TaskID{Job: "j", Index: i},
		Platform: model.PlatformA, Timestamp: day0, CPUUsage: 1, CPI: 1.5,
	}}
}

func TestSpoolerBuffersWhileDownAndReplaysInOrder(t *testing.T) {
	gate := &gateSink{}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sp := NewSpooler(gate, SpoolConfig{})
	sp.SetMetrics(m)

	// Healthy path: straight through, nothing spooled.
	if err := sp.Publish(oneBatch(0)); err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 0 {
		t.Fatalf("spooled while healthy: %d", sp.Len())
	}

	gate.setDown(true)
	for i := 1; i <= 5; i++ {
		if err := sp.Publish(oneBatch(i)); err != nil {
			t.Fatalf("spooled publish %d returned %v (a spooled batch is not an error)", i, err)
		}
	}
	if sp.Len() != 5 {
		t.Fatalf("spool = %d batches, want 5", sp.Len())
	}
	if m.SpooledBatches.Value() != 5 || m.SpooledBytes.Value() == 0 {
		t.Errorf("spool gauges = %v batches / %v bytes",
			m.SpooledBatches.Value(), m.SpooledBytes.Value())
	}
	if n, err := sp.TryDrain(); err == nil || n != 0 {
		t.Fatalf("drain through a down gate: n=%d err=%v", n, err)
	}

	gate.setDown(false)
	n, err := sp.TryDrain()
	if err != nil || n != 5 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
	got := gate.received()
	if len(got) != 6 {
		t.Fatalf("downstream saw %d batches, want 6", len(got))
	}
	for i, b := range got {
		if b[0].Task.Index != i {
			t.Fatalf("batch %d has task index %d: replay out of order", i, b[0].Task.Index)
		}
	}
	st := sp.Stats()
	if st.Dropped != 0 || st.Replayed != 5 || st.Batches != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v", st)
	}
	if m.SpoolReplayed.Value() != 5 || m.SpillDropped.Value() != 0 {
		t.Errorf("replayed=%v dropped=%v", m.SpoolReplayed.Value(), m.SpillDropped.Value())
	}
	if m.SpooledBatches.Value() != 0 {
		t.Errorf("spooled gauge = %v after drain", m.SpooledBatches.Value())
	}
}

func TestSpoolerPreservesOrderWithBackedUpSpool(t *testing.T) {
	// Downstream recovers while the spool is non-empty: new publishes
	// must queue behind the backlog, not jump it.
	gate := &gateSink{}
	sp := NewSpooler(gate, SpoolConfig{})
	gate.setDown(true)
	_ = sp.Publish(oneBatch(0))
	gate.setDown(false)
	_ = sp.Publish(oneBatch(1)) // healthy downstream, but batch 0 is queued
	if len(gate.received()) != 0 {
		t.Fatal("batch overtook the spooled backlog")
	}
	if n, err := sp.TryDrain(); err != nil || n != 2 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
	got := gate.received()
	if got[0][0].Task.Index != 0 || got[1][0].Task.Index != 1 {
		t.Fatalf("order broken: %v then %v", got[0][0].Task.Index, got[1][0].Task.Index)
	}
}

func TestSpoolerDropsOldestOverBatchBudget(t *testing.T) {
	gate := &gateSink{down: true}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sp := NewSpooler(gate, SpoolConfig{MaxBatches: 3})
	sp.SetMetrics(m)
	for i := 0; i < 5; i++ {
		_ = sp.Publish(oneBatch(i))
	}
	if sp.Len() != 3 {
		t.Fatalf("spool = %d, want 3", sp.Len())
	}
	if st := sp.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (oldest evicted)", st.Dropped)
	}
	if m.SpillDropped.Value() != 2 {
		t.Errorf("SpillDropped = %v", m.SpillDropped.Value())
	}
	gate.setDown(false)
	if _, err := sp.TryDrain(); err != nil {
		t.Fatal(err)
	}
	got := gate.received()
	// Oldest (0, 1) gone; 2, 3, 4 survive in order.
	if len(got) != 3 || got[0][0].Task.Index != 2 || got[2][0].Task.Index != 4 {
		t.Fatalf("survivors wrong: %d batches, first %d", len(got), got[0][0].Task.Index)
	}
}

// TestSpoolerEvictionCountsOnce: an evicted batch is one loss, counted
// in cpi2_pipeline_spool_dropped_total only. dropped_batches counts the
// publishes a redialer refused, which the spool re-sends, so an
// eviction must not count there as well.
func TestSpoolerEvictionCountsOnce(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	sp := NewSpooler(&gateSink{down: true}, SpoolConfig{MaxBatches: 2})
	sp.SetMetrics(m)
	for i := 0; i < 3; i++ {
		_ = sp.Publish(oneBatch(i))
	}
	if got := m.SpillDropped.Value(); got != 1 {
		t.Errorf("spool_dropped = %v, want 1", got)
	}
	if got := m.DroppedBatches.Value(); got != 0 {
		t.Errorf("dropped_batches = %v, want 0: the eviction was counted twice", got)
	}
}

func TestSpoolerDropsOldestOverByteBudget(t *testing.T) {
	gate := &gateSink{down: true}
	// Budget fits roughly two single-sample batches.
	sp := NewSpooler(gate, SpoolConfig{MaxBytes: 2 * (approxBatchOverheadBytes + approxSampleBytes)})
	for i := 0; i < 5; i++ {
		_ = sp.Publish(oneBatch(i))
	}
	if sp.Len() != 2 {
		t.Fatalf("spool = %d, want 2", sp.Len())
	}
	if st := sp.Stats(); st.Dropped != 3 || st.Bytes > 2*(approxBatchOverheadBytes+approxSampleBytes) {
		t.Fatalf("stats = %+v", st)
	}
	// A batch bigger than the whole budget is still kept (len>1 guard):
	// the budget sheds backlog, it must not make big batches unsendable.
	gate.setDown(false)
	_, _ = sp.TryDrain()
	big := make([]model.Sample, 100)
	for i := range big {
		big[i] = oneBatch(i)[0]
	}
	gate.setDown(true)
	_ = sp.Publish(big)
	if sp.Len() != 1 {
		t.Fatalf("oversized batch evicted itself: len=%d", sp.Len())
	}
}

func TestSpoolerAsyncReplay(t *testing.T) {
	gate := &gateSink{down: true}
	sp := NewSpooler(gate, SpoolConfig{})
	defer sp.Close()
	sp.Start()
	for i := 0; i < 4; i++ {
		_ = sp.Publish(oneBatch(i))
	}
	sp.Kick() // loop retries on its own backoff even after a failed kick
	time.Sleep(15 * time.Millisecond)
	gate.setDown(false)
	waitFor(t, "async drain", func() bool { return sp.Len() == 0 })
	if got := gate.received(); len(got) != 4 || got[0][0].Task.Index != 0 {
		t.Fatalf("async replay wrong: %d batches", len(got))
	}
}

// TestSpoolerOverRedialerSurvivesOutage is the integration contract:
// spool + redialer deliver every batch across a server restart, with
// zero drops when the budget suffices.
func TestSpoolerOverRedialerSurvivesOutage(t *testing.T) {
	builder := core.NewSpecBuilder(core.DefaultParams())
	bus := NewBus(builder)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rd := NewRedialer(addr, nil)
	defer rd.Close()
	sp := NewSpooler(rd, SpoolConfig{})
	defer sp.Close()
	rd.SetOnConnect(sp.Kick)
	sp.Start()

	waitFor(t, "connect", rd.Connected)
	if err := sp.Publish(makeSamples("j", 4, 25, 1.2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-outage samples", func() bool { r, _ := bus.Stats(); return r == 100 })

	// Outage: server dies; everything published lands in the spool.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect", func() bool { return !rd.Connected() })
	for i := 0; i < 10; i++ {
		if err := sp.Publish(makeSamples("j", 4, 25, 1.2)); err != nil {
			t.Fatalf("publish during outage: %v", err)
		}
	}
	waitFor(t, "spooled backlog", func() bool { return sp.Len() == 10 })

	// Recovery on the same address: reconnect → onConnect kick → replay.
	srv2 := NewServer(bus)
	if _, err := srv2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "replay", func() bool { r, _ := bus.Stats(); return r == 1100 })
	if st := sp.Stats(); st.Dropped != 0 || st.Replayed != 10 {
		t.Errorf("stats = %+v, want 0 dropped / 10 replayed", st)
	}
}

func TestRedialerSubscribeDedup(t *testing.T) {
	builder := core.NewSpecBuilder(core.DefaultParams())
	bus := NewBus(builder)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var got collectSpecs
	rd := NewRedialer(addr, got.add)
	defer rd.Close()
	key := model.SpecKey{Job: "j", Platform: model.PlatformA}
	other := model.SpecKey{Job: "k", Platform: model.PlatformA}
	// A re-subscribing agent (e.g. one that re-registers its tasks every
	// tick) must not grow the replay list.
	for i := 0; i < 500; i++ {
		if err := rd.Subscribe(key); err != nil {
			t.Fatal(err)
		}
	}
	_ = rd.Subscribe(other, key, other)
	rd.mu.Lock()
	n := len(rd.subs)
	rd.mu.Unlock()
	if n != 2 {
		t.Fatalf("replay list = %d keys after duplicate subscribes, want 2", n)
	}

	waitFor(t, "connect", rd.Connected)
	_ = rd.Publish(makeSamples("j", 8, 150, 1.2))
	waitFor(t, "samples", func() bool { r, _ := bus.Stats(); return r == 1200 })

	// Force a reconnect; the replayed subscription must still deliver
	// specs exactly once per push.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect", func() bool { return !rd.Connected() })
	srv2 := NewServer(bus)
	if _, err := srv2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "reconnect", rd.Connected)
	// The bus pushes to connections subscribed when it recomputes and
	// replays nothing on subscribe, so recompute only once srv2 has
	// applied the replayed subscription.
	waitFor(t, "replayed subscribe", func() bool {
		srv2.mu.Lock()
		defer srv2.mu.Unlock()
		for c := range srv2.conns {
			c.subMu.Lock()
			subscribed := c.subscribed[key]
			c.subMu.Unlock()
			if subscribed {
				return true
			}
		}
		return false
	})

	bus.Recompute(day0)
	waitFor(t, "spec push", func() bool { return got.count() >= 1 })
	time.Sleep(50 * time.Millisecond) // would-be duplicates need a beat to arrive
	if c := got.count(); c != 1 {
		t.Errorf("received %d spec pushes after reconnect, want exactly 1", c)
	}
}

func TestSpoolConfigSanitize(t *testing.T) {
	c := SpoolConfig{}.Sanitize()
	if c.MaxBatches != 4096 || c.MaxBytes != 64<<20 {
		t.Errorf("defaults wrong: %+v", c)
	}
	c = SpoolConfig{MaxBatches: 7}.Sanitize()
	if c.MaxBatches != 7 || c.MaxBytes != 64<<20 {
		t.Errorf("sanitize clobbered/kept wrong fields: %+v", c)
	}
	// Replay waits are full jitter: a draw of 1 waits the whole ceiling
	// (200ms doubling per failure up to 10s), a draw of 0 the 1ms floor.
	sp := NewSpooler(&gateSink{}, SpoolConfig{})
	for attempt, ceil := range map[int]time.Duration{0: 200 * time.Millisecond, 3: 1600 * time.Millisecond, 100: 10 * time.Second} {
		sp.rand = func() float64 { return 1 }
		if d := sp.backoff(attempt); d != ceil {
			t.Errorf("backoff(%d) at rand=1 → %v, want %v", attempt, d, ceil)
		}
		sp.rand = func() float64 { return 0 }
		if d := sp.backoff(attempt); d != time.Millisecond {
			t.Errorf("backoff(%d) at rand=0 → %v, want 1ms", attempt, d)
		}
	}
}

// TestSpoolDepthGaugesSumAcrossSpools: spools sharing one metric set —
// one per shard in cpi2agent — add up in the depth gauges instead of
// overwriting each other, and SetMetrics moves a spool's depth between
// sets.
func TestSpoolDepthGaugesSumAcrossSpools(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	gauges := func(m *Metrics) (float64, float64) { return m.SpooledBatches.Value(), m.SpooledBytes.Value() }
	perBatch := float64(batchBytes(oneBatch(0)))
	gates := []*gateSink{{down: true}, {down: true}}
	spools := make([]*Spooler, len(gates))
	for i, n := range []int{3, 5} {
		spools[i] = NewSpooler(gates[i], SpoolConfig{})
		spools[i].SetMetrics(m)
		for j := 0; j < n; j++ {
			_ = spools[i].Publish(oneBatch(j))
		}
	}
	if b, by := gauges(m); b != 8 || by != 8*perBatch {
		t.Errorf("two spools of 3 and 5 batches: gauges read %v batches, %v bytes, want 8 and %v", b, by, 8*perBatch)
	}
	gates[0].setDown(false)
	if _, err := spools[0].TryDrain(); err != nil {
		t.Fatal(err)
	}
	if b, by := gauges(m); b != 5 || by != 5*perBatch {
		t.Errorf("after the first spool drained: gauges read %v batches, %v bytes, want 5 and %v", b, by, 5*perBatch)
	}
	other := NewMetrics(obs.NewRegistry())
	spools[1].SetMetrics(other)
	if b, _ := gauges(m); b != 0 {
		t.Errorf("old set still reads %v batches after SetMetrics moved the spool away", b)
	}
	if b, by := gauges(other); b != 5 || by != 5*perBatch {
		t.Errorf("new set reads %v batches, %v bytes, want 5 and %v", b, by, 5*perBatch)
	}
}
