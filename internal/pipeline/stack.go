package pipeline

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The two halves of the Figure 6 sample path, each built in one place
// for the cluster simulator and both daemons: NewShardBus is one
// aggregator shard, NewEgress is one agent's way out to every shard.

// NewShardBus builds the aggregator shard named name on ring: a spec
// builder over params behind a Bus that stamps its spans with name and
// refuses, as misrouted, every sample whose key the ring assigns to
// another member. reg (nil: uninstrumented), tr and v (nil: none) are
// the shard's metrics, span store and ingress validator. A name that
// is not on the ring is an error.
func NewShardBus(params core.Params, name string, ring *Ring, reg *obs.Registry,
	tr *trace.Store, v *core.SampleValidator) (*Bus, error) {
	b := NewBus(core.NewSpecBuilder(params))
	b.shard = name
	b.builder.SetShard(name)
	if err := b.SetRing(ring); err != nil {
		return nil, err
	}
	if reg != nil {
		b.SetMetrics(NewMetrics(reg))
		b.builder.SetMetrics(core.NewMetrics(reg))
	}
	b.SetTrace(tr)
	b.SetValidator(v)
	return b, nil
}

// SetRing swaps in the ring a shard bus checks ownership against: from
// the next batch on it admits only the keys ring assigns to the bus's
// shard, which must be a member. A live reshard calls it on every
// surviving shard in the step that re-routes the agents.
func (b *Bus) SetRing(ring *Ring) error {
	self := slices.Index(ring.Members(), b.shard)
	if self < 0 {
		return fmt.Errorf("%s is not a member of ring %s", b.shard, strings.Join(ring.Members(), ","))
	}
	b.mu.Lock()
	b.ring, b.self = ring, self
	b.mu.Unlock()
	return nil
}

// Egress is one agent's sample path out to the spec tier: a Router
// over the shard ring and, per ring member, a Spooler in front of that
// member's link L. It is the agent's SampleSink; DrainAt replays the
// spools, Stats and Len report them, and Close shuts the whole path.
type Egress[L SampleSink] struct {
	router *Router
	spools []*Spooler // spools[i] serves ring.Members()[i]
	links  []L
}

// NewEgress builds the egress over ring. link makes member's link; kick
// wakes that member's spool for an immediate replay (a Redialer calls
// it on connect). Every spool is bounded by cfg and records its replay
// spans in tr (nil: none) and its depth in m (nil: uninstrumented).
func NewEgress[L SampleSink](ring *Ring, cfg SpoolConfig, m *Metrics, tr *trace.Store,
	link func(member string, kick func()) L) (*Egress[L], error) {
	members := ring.Members()
	e := &Egress[L]{spools: make([]*Spooler, len(members)), links: make([]L, len(members))}
	sinks := make(map[string]SampleSink, len(members))
	for i, member := range members {
		sp := NewSpooler(nil, cfg)
		sp.SetMetrics(m)
		sp.SetTrace(tr)
		e.links[i] = link(member, sp.Kick)
		sp.next = e.links[i]
		e.spools[i], sinks[member] = sp, sp
	}
	router, err := NewRouter(ring, sinks)
	if err != nil {
		return nil, err
	}
	e.router = router
	return e, nil
}

// Publish implements SampleSink: each sample goes to its key's owner.
func (e *Egress[L]) Publish(samples []model.Sample) error { return e.router.Publish(samples) }

// Links returns the members' links in ring-member order.
func (e *Egress[L]) Links() []L { return e.links }

// Start launches every spool's asynchronous replay loop (see
// Spooler.Start). Callers that replay only with DrainAt never call it.
func (e *Egress[L]) Start() {
	for _, sp := range e.spools {
		sp.Start()
	}
}

// DrainAt replays every spool's backlog, in ring-member order, until
// its link refuses; now stamps the replay spans (see TryDrainAt).
func (e *Egress[L]) DrainAt(now time.Time) {
	for _, sp := range e.spools {
		_, _ = sp.TryDrainAt(now)
	}
}

// Len returns how many batches the spools hold.
func (e *Egress[L]) Len() int {
	n := 0
	for _, sp := range e.spools {
		n += sp.Len()
	}
	return n
}

// Stats sums the spools' counters.
func (e *Egress[L]) Stats() (st SpoolStats) {
	for _, sp := range e.spools {
		s := sp.Stats()
		st = SpoolStats{st.Batches + s.Batches, st.Bytes + s.Bytes, st.Dropped + s.Dropped, st.Replayed + s.Replayed}
	}
	return st
}

// TakeAll lifts every spooled batch out, undelivered, spool by spool
// in ring-member order (see Spooler.TakeAll).
func (e *Egress[L]) TakeAll() [][]model.Sample {
	var out [][]model.Sample
	for _, sp := range e.spools {
		out = append(out, sp.TakeAll()...)
	}
	return out
}

// Close stops each member's spool replay loop, then closes its link if
// the link is an io.Closer. It is for shutdown, so it reports nothing:
// a Spooler's and a Redialer's Close never fail.
func (e *Egress[L]) Close() {
	for i, sp := range e.spools {
		sp.Close()
		if c, ok := any(e.links[i]).(io.Closer); ok {
			c.Close()
		}
	}
}
