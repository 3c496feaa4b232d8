package pipeline

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

var day0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

func makeSamples(job model.JobName, tasks, perTask int, cpi float64) []model.Sample {
	var out []model.Sample
	for task := 0; task < tasks; task++ {
		for i := 0; i < perTask; i++ {
			out = append(out, model.Sample{
				Job:       job,
				Task:      model.TaskID{Job: job, Index: task},
				Platform:  model.PlatformA,
				Timestamp: day0.Add(time.Duration(i) * time.Minute),
				CPUUsage:  1,
				CPI:       cpi + float64(i%10)*0.01,
			})
		}
	}
	return out
}

func TestBusPublishAndRecompute(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	table := NewSpecTable(nil)
	bus.Watch(table)

	if err := bus.Publish(makeSamples("j", 10, 150, 1.5)); err != nil {
		t.Fatal(err)
	}
	received, dropped := bus.Stats()
	if received != 1500 || dropped != 0 {
		t.Errorf("stats = %d/%d", received, dropped)
	}
	specs := bus.Recompute(day0)
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}
	got, ok := table.Get(model.SpecKey{Job: "j", Platform: model.PlatformA})
	if !ok {
		t.Fatal("spec not delivered to watcher")
	}
	if got.NumSamples != 1500 {
		t.Errorf("delivered spec = %+v", got)
	}
	if table.Len() != 1 {
		t.Errorf("table len = %d", table.Len())
	}
	if all := table.All(); len(all) != 1 || all[0].Job != "j" {
		t.Errorf("All = %+v", all)
	}
	// All lists specs in model.SpecKey.Compare order, the order specs
	// are published and checkpointed in: web before web-1, although
	// "web-1@…" sorts before "web@…" as a string.
	for _, job := range []model.JobName{"web-1", "web"} {
		table.DeliverSpec(model.Spec{Job: job, Platform: model.PlatformA})
	}
	var jobs []model.JobName
	for _, s := range table.All() {
		jobs = append(jobs, s.Job)
	}
	if want := []model.JobName{"j", "web", "web-1"}; !slices.Equal(jobs, want) {
		t.Errorf("All lists jobs %v, want %v", jobs, want)
	}
}

func TestBusDropsInvalidSamples(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bad := []model.Sample{{Job: "", CPI: 1}}
	if err := bus.Publish(bad); err != nil {
		t.Fatal(err)
	}
	received, dropped := bus.Stats()
	if received != 0 || dropped != 1 {
		t.Errorf("stats = %d/%d", received, dropped)
	}
}

func TestBusWatcherFiltering(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	only := model.SpecKey{Job: "wanted", Platform: model.PlatformA}
	table := NewSpecTable(func(k model.SpecKey) bool { return k == only })
	bus.Watch(table)
	_ = bus.Publish(makeSamples("wanted", 8, 150, 1.2))
	_ = bus.Publish(makeSamples("other", 8, 150, 2.2))
	bus.Recompute(day0)
	if table.Len() != 1 {
		t.Errorf("table has %d specs, want only the subscribed one", table.Len())
	}
	if _, ok := table.Get(only); !ok {
		t.Error("wanted spec missing")
	}
}

func TestBusMaybeRecompute(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	_ = bus.Publish(makeSamples("j", 8, 150, 1.2))
	if specs := bus.MaybeRecompute(day0); len(specs) != 1 {
		t.Fatalf("first MaybeRecompute = %d specs", len(specs))
	}
	_ = bus.Publish(makeSamples("j", 8, 150, 1.2))
	if specs := bus.MaybeRecompute(day0.Add(time.Hour)); specs != nil {
		t.Error("recompute ran before interval elapsed")
	}
	if specs := bus.MaybeRecompute(day0.Add(24 * time.Hour)); len(specs) != 1 {
		t.Error("recompute did not run after interval")
	}
}

// collectSpecs is a thread-safe spec collector for client callbacks.
type collectSpecs struct {
	mu    sync.Mutex
	specs []model.Spec
}

func (c *collectSpecs) add(s model.Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.specs = append(c.specs, s)
}

func (c *collectSpecs) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.specs)
}

func TestTCPEndToEnd(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got collectSpecs
	client := dialTest(t, addr, got.add)

	if err := client.Subscribe(); err != nil { // all specs
		t.Fatal(err)
	}
	if err := client.Publish(makeSamples("tcpjob", 8, 150, 1.4)); err != nil {
		t.Fatal(err)
	}
	// Wait until the samples arrive server-side.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, _ := bus.Stats(); r == 1200 {
			break
		}
		if time.Now().After(deadline) {
			r, d := bus.Stats()
			t.Fatalf("samples never arrived: %d/%d", r, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	bus.Recompute(day0)
	for got.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spec push never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got.mu.Lock()
	spec := got.specs[0]
	got.mu.Unlock()
	if spec.Job != "tcpjob" || spec.NumSamples != 1200 {
		t.Errorf("pushed spec = %+v", spec)
	}
}

func TestTCPSubscriptionFiltering(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got collectSpecs
	client := dialTest(t, addr, got.add)
	if err := client.Subscribe(model.SpecKey{Job: "mine", Platform: model.PlatformA}); err != nil {
		t.Fatal(err)
	}
	_ = client.Publish(makeSamples("mine", 8, 150, 1.2))
	_ = client.Publish(makeSamples("other", 8, 150, 1.9))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, _ := bus.Stats(); r == 2400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("samples never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	bus.Recompute(day0)
	for got.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spec never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // allow any extra (wrong) pushes
	if got.count() != 1 {
		t.Errorf("received %d specs, want 1 (filtered)", got.count())
	}
}

func TestTCPClientDisconnectTolerated(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := dialTest(t, addr, nil)
	_ = client.Subscribe()
	_ = client.Publish(makeSamples("j", 8, 150, 1.2))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, _ := bus.Stats(); r == 1200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("samples never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	client.Close()
	// Recompute after the watcher is gone must not panic or block.
	specs := bus.Recompute(day0)
	if len(specs) != 1 {
		t.Errorf("specs = %d", len(specs))
	}
}

// TestTCPDialFailure: with no connection up — here none can be, the
// port refuses — Publish returns an error and counts the batch in
// DroppedBatches.
func TestTCPDialFailure(t *testing.T) {
	rd := newRedialer("127.0.0.1:1", nil, noRedial)
	defer rd.Close()
	m := NewMetrics(obs.NewRegistry())
	rd.SetMetrics(m)
	if err := rd.Publish(makeSamples("j", 1, 1, 1.2)); err == nil {
		t.Error("publish without a connection succeeded")
	}
	if rd.Connected() || m.DroppedBatches.Value() != 1 {
		t.Errorf("connected %v, dropped batches %v, want false and 1", rd.Connected(), m.DroppedBatches.Value())
	}
}

func TestTCPPublishEmptyIsNoop(t *testing.T) {
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := dialTest(t, addr, nil)
	if err := client.Publish(nil); err != nil {
		t.Errorf("empty publish errored: %v", err)
	}
}
