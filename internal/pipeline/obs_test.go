package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBusUnwatch(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)

	a := NewSpecTable(nil)
	b := NewSpecTable(nil)
	bus.Watch(a)
	bus.Watch(b)
	if got := m.Watchers.Value(); got != 2 {
		t.Errorf("watchers gauge = %v, want 2", got)
	}
	bus.Unwatch(a)
	if bus.NumWatchers() != 1 || m.Watchers.Value() != 1 {
		t.Errorf("after Unwatch: %d watchers, gauge %v", bus.NumWatchers(), m.Watchers.Value())
	}
	// Unwatching something never registered is a no-op.
	bus.Unwatch(a)
	if bus.NumWatchers() != 1 {
		t.Errorf("double Unwatch removed the wrong watcher")
	}
	// The remaining watcher still receives specs.
	_ = bus.Publish(makeSamples("j", 8, 150, 1.2))
	bus.Recompute(day0)
	if b.Len() != 1 {
		t.Error("remaining watcher missed the spec push")
	}
	if a.Len() != 0 {
		t.Error("removed watcher still received a spec")
	}
}

// TestServerUnwatchesDeadConnections is the watcher-leak regression
// test: when an agent connection dies, the server must deregister its
// watcher from the bus instead of keeping it forever.
func TestServerUnwatchesDeadConnections(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 3; round++ {
		client, err := Dial(context.Background(), addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = client.Subscribe()
		waitFor(t, "watcher registration", func() bool { return bus.NumWatchers() == 1 })
		if err := client.Close(); err != nil {
			t.Errorf("clean Close returned %v", err)
		}
		waitFor(t, "watcher deregistration", func() bool { return bus.NumWatchers() == 0 })
	}
	waitFor(t, "connected gauge drain", func() bool { return m.ConnectedAgents.Value() == 0 })
	if m.Watchers.Value() != 0 {
		t.Errorf("watchers gauge = %v after all disconnects", m.Watchers.Value())
	}
}

func TestTCPMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientReg := obs.NewRegistry()
	cm := NewMetrics(clientReg)
	var got collectSpecs
	client, err := Dial(context.Background(), addr, got.add)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetMetrics(cm)

	if err := client.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(makeSamples("j", 8, 150, 1.2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "samples", func() bool { r, _ := bus.Stats(); return r == 1200 })

	if m.ConnectedAgents.Value() != 1 {
		t.Errorf("connected agents = %v, want 1", m.ConnectedAgents.Value())
	}
	// Server saw hello + subscribe + samples = 3 messages in.
	if m.MessagesIn.Value() != 3 {
		t.Errorf("server messages in = %v, want 3", m.MessagesIn.Value())
	}
	if m.BytesIn.Value() == 0 {
		t.Error("server bytes in not counted")
	}
	if m.SamplesIn.Value() != 1200 {
		t.Errorf("pipeline samples = %v, want 1200", m.SamplesIn.Value())
	}
	// Client sent subscribe + samples = 2 counted messages out (the
	// hello went out during Dial, before SetMetrics installed cm).
	if cm.MessagesOut.Value() != 2 || cm.BytesOut.Value() == 0 {
		t.Errorf("client out counters = %v msgs / %v bytes",
			cm.MessagesOut.Value(), cm.BytesOut.Value())
	}

	bus.Recompute(day0)
	waitFor(t, "spec push", func() bool { return got.count() == 1 })
	// Server sent its hello + spec = 2 messages out, 1 spec push.
	if m.SpecPushes.Value() != 1 || m.MessagesOut.Value() != 2 {
		t.Errorf("push counters = %v pushes / %v msgs out",
			m.SpecPushes.Value(), m.MessagesOut.Value())
	}
	// ≥ 1: the spec push is always counted; whether the server's hello
	// was depends on whether it raced the SetMetrics call above.
	waitFor(t, "client in counters", func() bool {
		return cm.MessagesIn.Value() >= 1 && cm.BytesIn.Value() > 0
	})
	for _, side := range []*Metrics{m, cm} {
		for _, reason := range []string{"decode", "oversize", "read"} {
			if got := side.WireErrors.With(reason).Value(); got != 0 {
				t.Errorf("wire errors (%s) during a clean session = %v", reason, got)
			}
		}
	}
}

func TestRedialerReconnects(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	clientReg := obs.NewRegistry()
	cm := NewMetrics(clientReg)
	var got collectSpecs
	rd := NewRedialer(addr, got.add)
	rd.SetMetrics(cm)
	defer rd.Close()
	if err := rd.Subscribe(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first connect", rd.Connected)

	if err := rd.Publish(makeSamples("j", 8, 150, 1.2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "samples", func() bool { r, _ := bus.Stats(); return r == 1200 })

	// Kill the server; the redialer must notice and drop batches.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect", func() bool { return !rd.Connected() })
	_ = rd.Publish(makeSamples("j", 1, 1, 1.2))
	if cm.DroppedBatches.Value() == 0 {
		t.Error("dropped batch not counted while disconnected")
	}

	// Bring the server back on the same address; the redialer must
	// reconnect and replay its subscription.
	srv2 := NewServer(bus)
	if _, err := srv2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "reconnect", rd.Connected)
	if cm.Reconnects.Value() != 1 {
		t.Errorf("reconnects = %v, want 1", cm.Reconnects.Value())
	}

	waitFor(t, "publish after reconnect", func() bool {
		_ = rd.Publish(makeSamples("j", 8, 150, 1.3))
		r, _ := bus.Stats()
		return r >= 2400
	})
	bus.Recompute(day0)
	waitFor(t, "spec push after reconnect", func() bool { return got.count() >= 1 })
}
