package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// jobOwnedElsewhere returns a job whose platform-A key ring assigns to
// a member other than self.
func jobOwnedElsewhere(ring *Ring, self string) model.JobName {
	for i := 0; ; i++ {
		job := model.JobName(fmt.Sprintf("not-ours-%d", i))
		if ring.Owner(model.SpecKey{Job: job, Platform: model.PlatformA}) != self {
			return job
		}
	}
}

// TestNewShardBusRing: a shard must be a member of its ring, which
// collapses repeated names; cpi2aggregator's -shard-id and -ring flags
// reach NewShardBus as they are given (an empty -ring is the ring of
// -shard-id alone).
func TestNewShardBusRing(t *testing.T) {
	cases := []struct {
		name    string
		ring    []string
		members []string // nil: an error naming the shard
	}{
		{"shard-0", []string{"shard-0"}, []string{"shard-0"}},
		{"shard-1", []string{"shard-1"}, []string{"shard-1"}},
		{"shard-0", []string{"shard-0", "shard-0"}, []string{"shard-0"}},
		{"shard-1", []string{"shard-1", "shard-0", "shard-1"}, []string{"shard-0", "shard-1"}},
		{"shard-2", []string{"shard-0", "shard-1", "shard-2"}, []string{"shard-0", "shard-1", "shard-2"}},
		{"shard-0", []string{"a", "b"}, nil},
		{"shard-3", []string{"shard-0", "shard-1"}, nil},
		{"", []string{""}, nil},
	}
	for _, c := range cases {
		bus, err := NewShardBus(core.DefaultParams(), c.name, NewRing(c.ring, 0), nil, nil, nil)
		if c.members == nil {
			if err == nil || !strings.Contains(err.Error(), c.name+" is not a member of ring") {
				t.Errorf("NewShardBus(%q, ring %q) = %v, %v; want a not-a-member error", c.name, c.ring, bus, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewShardBus(%q, ring %q): %v", c.name, c.ring, err)
			continue
		}
		if bus.Shard() != c.name || !slices.Equal(bus.ring.Members(), c.members) {
			t.Errorf("NewShardBus(%q, ring %q) = shard %q on %v, want %q on %v",
				c.name, c.ring, bus.Shard(), bus.ring.Members(), c.name, c.members)
		}
	}
}

// TestShardBusOwnership: a shard folds the keys its ring assigns it,
// counts the rest as misrouted, and after SetRing follows the new ring.
// A ring without the shard is refused and leaves the old one in force.
func TestShardBusOwnership(t *testing.T) {
	reg := obs.NewRegistry()
	two := NewRing(shardNames(2), 0)
	store := trace.NewStore(8)
	bus, err := NewShardBus(core.DefaultParams(), "shard-1", two, reg, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ours, theirs := jobOwnedElsewhere(two, "shard-0"), jobOwnedElsewhere(two, "shard-1")
	batch := wireBenchSamples(4)
	batch[1].Job, batch[3].Job = theirs, theirs
	for i := range batch {
		if batch[i].Job != theirs {
			batch[i].Job = ours
		}
	}
	m := NewMetrics(reg)
	publish := func(wantIn, wantMisrouted float64) {
		t.Helper()
		in0, mis0 := m.SamplesIn.Value(), m.Misrouted.Value()
		if err := bus.Publish(batch); err != nil {
			t.Fatal(err)
		}
		if in, mis := m.SamplesIn.Value()-in0, m.Misrouted.Value()-mis0; in != wantIn || mis != wantMisrouted {
			t.Errorf("folded %v, misrouted %v; want %v, %v", in, mis, wantIn, wantMisrouted)
		}
	}
	publish(2, 2)
	if err := bus.SetRing(NewRing([]string{"shard-0"}, 0)); err == nil {
		t.Error("SetRing accepted a ring without shard-1")
	}
	publish(2, 2)
	if err := bus.SetRing(NewRing([]string{"shard-1"}, 0)); err != nil {
		t.Fatal(err)
	}
	publish(4, 0)
	if sp := store.Recent(0); len(sp) == 0 || sp[0].Shard != "shard-1" {
		t.Errorf("ingest spans %+v, want them stamped shard-1", sp)
	}
}

// closeSink is a link that fails while down and records Close.
type closeSink struct {
	captureSink
	down   bool
	closed bool
}

func (c *closeSink) Publish(samples []model.Sample) error {
	if c.down {
		return errors.New("down")
	}
	return c.captureSink.Publish(samples)
}

func (c *closeSink) Close() error { c.closed = true; return nil }

// TestEgress: the egress routes every sample to its key's owner
// through that member's spool, which buffers while the link refuses
// and replays on DrainAt; Len, Stats and TakeAll see every spool, and
// Close closes the links.
func TestEgress(t *testing.T) {
	ring := NewRing(shardNames(3), 0)
	store := trace.NewStore(16)
	kicks := map[string]func(){}
	eg, err := NewEgress(ring, SpoolConfig{}, nil, store, func(member string, kick func()) *closeSink {
		kicks[member] = kick
		return &closeSink{}
	})
	if err != nil {
		t.Fatal(err)
	}
	links := eg.Links()
	if len(links) != 3 || len(kicks) != 3 {
		t.Fatalf("%d links, %d kicks for a ring of 3", len(links), len(kicks))
	}
	down := ring.Owner(model.SpecKey{Job: "websearch", Platform: model.PlatformA})
	links[slices.Index(ring.Members(), down)].down = true

	var batch []model.Sample
	for _, job := range []model.JobName{"websearch", "bigtable", "logproc", "video", "memkv", "ads"} {
		batch = append(batch, model.Sample{Job: job, Platform: model.PlatformA, Timestamp: day0})
	}
	for i := 0; i < 2; i++ {
		if err := eg.Publish(batch); err != nil {
			t.Fatal(err)
		}
	}
	if eg.Len() != 2 || eg.Stats().Batches != 2 {
		t.Fatalf("Len %d, Stats %+v; want the down member's 2 batches spooled", eg.Len(), eg.Stats())
	}
	for i, l := range links {
		for _, b := range l.batches {
			for _, s := range b {
				if owner := ring.Owner(model.SpecKey{Job: s.Job, Platform: s.Platform}); owner != ring.Members()[i] {
					t.Errorf("%s reached %s, owner %s", s.Job, ring.Members()[i], owner)
				}
			}
		}
	}

	eg.DrainAt(day0.Add(time.Minute)) // still down: nothing moves
	links[slices.Index(ring.Members(), down)].down = false
	eg.DrainAt(day0.Add(time.Minute))
	if st := eg.Stats(); eg.Len() != 0 || st.Replayed != 2 || st.Dropped != 0 {
		t.Errorf("after the link recovers: Len %d, Stats %+v; want 0 spooled, 2 replayed", eg.Len(), st)
	}
	if got := len(store.Recent(0)); got != 2 {
		t.Errorf("%d spool spans, want one per replayed batch", got)
	}

	links[0].down = true
	_ = eg.Publish(batch)
	if taken := eg.TakeAll(); eg.Len() != 0 || len(taken) == 0 {
		t.Errorf("TakeAll took %d batches and left %d", len(taken), eg.Len())
	}
	eg.Close()
	for i, l := range links {
		if !l.closed {
			t.Errorf("link %s not closed", ring.Members()[i])
		}
	}
}
