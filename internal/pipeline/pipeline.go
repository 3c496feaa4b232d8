// Package pipeline implements the CPI² data pipeline of Figure 6: CPI
// samples flow from every machine's agent to a per-cluster collector,
// which feeds the spec aggregator; smoothed, averaged CPI specs flow
// back to every machine running tasks of each job.
//
// Two transports are provided over the same aggregation code:
//
//   - In-process (Bus): the cluster simulator's fast path.
//   - TCP (Server/Redialer): length-prefixed binary v4 frames over real
//     sockets (wirebin.go), used by cmd/cpi2agent and
//     cmd/cpi2aggregator, so the distributed path is exercised
//     honestly — batching, reconnects, and partial failure included.
//
// Both ends are assembled by two constructors (stack.go) that the
// simulator and the daemons share: NewShardBus builds one aggregator
// shard, a Bus that refuses keys its ring assigns elsewhere, and
// NewEgress builds an agent's Router → per-shard Spooler → link path.
//
// Delivery is at-most-once, like the real system's monitoring pipe:
// losing a CPI sample is harmless (the spec is statistical, and local
// detection sees every local sample regardless).
package pipeline

import (
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// SampleSink consumes CPI samples (machine → aggregator direction).
//
// Contract: the sink must not retain the samples slice (or the batch
// slices of BatchSink.PublishBatches) after the call returns —
// publishers reuse and pool their buffers. Sinks that buffer must
// copy, as Queue and Spooler do.
type SampleSink interface {
	Publish(samples []model.Sample) error
}

// BatchSink is an optional SampleSink extension for sinks that can
// accept many batches in one call. Queue.DrainTo uses it so a backlog
// drained straight into a Bus folds under one bus lock acquisition
// instead of one per batch. (The cluster's commit phase drains into
// each machine's Egress, which is not a BatchSink and routes batch by
// batch.)
type BatchSink interface {
	SampleSink
	// PublishBatches delivers the batches in order; per-batch delivery
	// semantics match repeated Publish calls.
	PublishBatches(batches [][]model.Sample) error
}

// SpecWatcher consumes spec updates (aggregator → machine direction).
//
// The bus calls all three methods inline from Push, one watcher after
// another and with no bus lock held, so they may take the watcher's own
// locks but what they cost is added to every push: a watcher that can
// stall (a socket) must bound the stall itself, as serverConn does with
// its write deadline.
type SpecWatcher interface {
	// WantSpec filters which job×platform specs the watcher cares
	// about (a machine only needs specs for jobs it runs). The bus
	// remembers the answer per key and asks again only after
	// InterestVersion has moved, so between two changes of the version
	// WantSpec must be a pure function of the key.
	WantSpec(key model.SpecKey) bool
	// InterestVersion is a counter that never goes back and that the
	// watcher bumps whenever anything WantSpec reads changes — in the
	// same critical section as that change, so that a WantSpec that
	// sees the new state is never paired with the old version. A
	// watcher whose interest is fixed for life returns a constant.
	InterestVersion() uint64
	// DeliverSpec hands over one updated spec.
	DeliverSpec(spec model.Spec)
}

// Bus is the in-process pipeline: a SampleSink feeding a SpecBuilder,
// fanning recomputed specs out to registered watchers.
type Bus struct {
	builder *core.SpecBuilder

	mu      sync.Mutex
	metrics *Metrics     // never nil; zero Metrics = uninstrumented
	tracer  *trace.Store // nil = untraced
	shard   string       // aggregator shard identity, fixed by NewShardBus; "" stamps none
	// watchers is the registration-ordered watcher list and watchGen the
	// number of Watch and Unwatch calls so far: each registration is
	// stamped with it, and Push compares it with the generation its
	// index was built at. Push keeps the slice it last saw and reads it
	// without mu (pushSaw says it holds this very array), so the elements
	// below that slice's length are never rewritten: Watch only appends,
	// and Unwatch moves to a copy first.
	watchers []registration
	watchGen uint64
	pushSaw  bool
	received int64
	dropped  int64
	// validator, when set, gates every inbound sample before the
	// builder sees it — the aggregator-side half of defense in depth
	// (the agent validates at egress too, but the wire is untrusted).
	validator *core.SampleValidator
	// ring, when set, is the shard-ownership filter: a sample is
	// admitted only if the ring assigns its key to member self, this
	// bus's shard (see NewShardBus and SetRing).
	ring *Ring
	self int

	// pushMu serialises Push and guards index, which only Push touches.
	// Watch and Unwatch never take it: a connection arriving or dying is
	// not held up by a push that is waiting on a slow socket.
	pushMu sync.Mutex
	index  interestIndex
}

// registration is one Watch call: seq orders it among all others and
// tells two registrations of the same watcher apart.
type registration struct {
	w   SpecWatcher
	seq uint64
}

// NewBus creates a pipeline around the given spec builder.
func NewBus(builder *core.SpecBuilder) *Bus {
	return &Bus{builder: builder, metrics: &Metrics{}}
}

// SetMetrics instruments the bus (and any Server built over it) with
// m; call before traffic flows. A nil m disables instrumentation. The
// bus's registrations move from the old set's watcher gauge to m's, so
// a retired bus given nil takes its registrations back out of a gauge
// it shares with other buses.
func (b *Bus) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	b.mu.Lock()
	b.metrics.Watchers.Add(-float64(len(b.watchers)))
	b.metrics = m
	m.Watchers.Add(float64(len(b.watchers)))
	b.mu.Unlock()
}

// Metrics returns the bus's metric set (never nil).
func (b *Bus) Metrics() *Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.metrics
}

// SetTrace directs the bus's aggregator-side spans (ingest, spec
// push) to store and forwards the store to the spec builder for its
// spec_build spans. Nil disables tracing (the default).
func (b *Bus) SetTrace(store *trace.Store) {
	b.mu.Lock()
	b.tracer = store
	b.mu.Unlock()
	b.builder.SetTrace(store)
}

// Shard returns the bus's shard identity ("" when it has none).
func (b *Bus) Shard() string { return b.shard }

// SetValidator installs an ingress sample validator (nil disables).
// Call before traffic flows; quarantined samples are counted in the
// validator's own metrics and never reach the spec builder.
func (b *Bus) SetValidator(v *core.SampleValidator) {
	b.mu.Lock()
	b.validator = v
	b.mu.Unlock()
}

// Publish implements SampleSink: invalid samples are counted and
// dropped, valid ones are folded into the builder.
func (b *Bus) Publish(samples []model.Sample) error {
	return b.publish(nil, samples)
}

// PublishBatches implements BatchSink: each batch goes through the
// builder's batch fold (one builder lock per batch) with the ownership
// and validator filter, then the stats and metrics are updated once — one
// b.mu acquisition per drain instead of one per batch.
func (b *Bus) PublishBatches(batches [][]model.Sample) error {
	return b.publish(nil, batches...)
}

// publish is PublishBatches for batches of one stream, whose keys memo
// resolves (nil: the builder's index does, as for in-process
// publishers). A server connection passes its own.
func (b *Bus) publish(memo *core.KeyMemo, batches ...[]model.Sample) error {
	b.mu.Lock()
	v, tracer, shard, ring, self := b.validator, b.tracer, b.shard, b.ring, b.self
	b.mu.Unlock()
	var received, dropped, misrouted int64
	var admit func(*model.Sample) bool
	if ring != nil || v != nil {
		admit = func(s *model.Sample) bool {
			if ring != nil && ring.OwnerIndex(model.SpecKey{Job: s.Job, Platform: s.Platform}) != self {
				misrouted++
				return false
			}
			return v == nil || v.Admit(s)
		}
	}
	for _, samples := range batches {
		admitted, first := b.builder.AddBatch(samples, admit, memo)
		received += int64(admitted)
		dropped += int64(len(samples) - admitted)
		if tracer != nil && admitted > 0 {
			// Stamped from the first sample that got in: a refused one
			// may carry a forged timestamp or trace id.
			from := &samples[first]
			tracer.Ingest(from.TraceID, from.Machine, shard, from.Timestamp, admitted, len(samples))
		}
	}
	if received == 0 && dropped == 0 {
		return nil
	}
	b.mu.Lock()
	b.received += received
	b.dropped += dropped
	m := b.metrics
	b.mu.Unlock()
	m.SamplesIn.Add(float64(received))
	m.SamplesDropped.Add(float64(dropped))
	if misrouted > 0 {
		m.Misrouted.Add(float64(misrouted))
	}
	return nil
}

// Watch registers a spec watcher (e.g. one machine agent). Its interest
// is probed by the next Push.
func (b *Bus) Watch(w SpecWatcher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.watchGen++
	b.watchers = append(b.watchers, registration{w: w, seq: b.watchGen})
	b.metrics.Watchers.Inc()
}

// Unwatch removes a previously registered watcher (compared by
// identity). Transports must call it when a connection dies, or the
// watcher list of a long-running aggregator grows without bound.
func (b *Bus) Unwatch(w SpecWatcher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, have := range b.watchers {
		if have.w == w {
			b.watchGen++
			if b.pushSaw {
				b.watchers, b.pushSaw = slices.Clone(b.watchers), false
			}
			b.watchers = slices.Delete(b.watchers, i, i+1)
			b.metrics.Watchers.Dec()
			return
		}
	}
}

// NumWatchers returns how many watchers are currently registered.
func (b *Bus) NumWatchers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.watchers)
}

// Recompute triggers spec recomputation and pushes every robust spec
// to interested watchers. It returns the published specs.
func (b *Bus) Recompute(now time.Time) []model.Spec {
	specs := b.builder.Recompute(now)
	b.Push(specs)
	return specs
}

// Push delivers already-computed specs to interested watchers without
// recomputing. The chaos harness uses it to model delayed spec pushes
// (recompute now, deliver later); Recompute uses it for the normal
// immediate path.
//
// Every spec handed in goes to every watcher that wants it, spec by
// spec and within a spec in registration order. Who wants what is read
// from the interest index (index.go), not asked: a push costs one
// InterestVersion read per watcher, WantSpec probes only for watchers
// that are new or whose version moved (one per indexed key each) and
// for keys never pushed before (one per watcher each), and then the
// deliveries. Watchers that buffer what they are given are flushed once
// at the end. Pushes are serialised; one in flight holds up neither
// Watch, Unwatch nor sample ingest.
func (b *Bus) Push(specs []model.Spec) {
	if len(specs) == 0 {
		return
	}
	b.pushMu.Lock()
	defer b.pushMu.Unlock()
	ix := &b.index
	b.mu.Lock()
	m, tracer, shard := b.metrics, b.tracer, b.shard
	fresh, moved := len(ix.watchers), []int32(nil)
	if ix.gen != b.watchGen {
		fresh, moved = ix.reconcile(b.watchers)
		ix.gen, b.pushSaw = b.watchGen, true
	}
	b.mu.Unlock()
	ix.renumber(moved)
	ix.reprobe(fresh)

	ix.pushes++
	total := 0
	for i := range specs {
		spec := &specs[i]
		in := ix.interest(spec.Key())
		in.pushed = ix.pushes
		n := len(in.slots)
		if n == 0 {
			continue
		}
		for _, s := range in.slots {
			ix.watchers[s].w.DeliverSpec(*spec)
		}
		total += n
		if tracer != nil {
			if in.name == (trace.Name{}) {
				in.name = trace.NewName(spec.Key().String())
			}
			tracer.SpecPush(trace.SpecID(string(spec.Job), string(spec.Platform), spec.UpdatedAt), shard, in.name, spec.UpdatedAt, n)
		}
	}
	for _, f := range ix.flushers {
		f.flushSpecs()
	}
	if total > 0 {
		m.SpecPushes.Add(float64(total))
	}
	ix.forgetIdle()
}

// MaybeRecompute runs Recompute if the builder's interval has elapsed.
func (b *Bus) MaybeRecompute(now time.Time) []model.Spec {
	if !b.builder.Due(now) {
		return nil
	}
	return b.Recompute(now)
}

// Stats returns (samples accepted, samples dropped).
func (b *Bus) Stats() (received, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.received, b.dropped
}

// Builder returns the underlying spec builder.
func (b *Bus) Builder() *core.SpecBuilder { return b.builder }

// SpecTable is a SpecWatcher that simply stores the latest spec per
// key — the client-side cache a machine agent keeps. Its interest is
// fixed at construction.
type SpecTable struct {
	mu    sync.Mutex
	specs map[model.SpecKey]model.Spec
	want  func(model.SpecKey) bool
}

// NewSpecTable creates a table; want may be nil to accept everything.
// want must be a pure function of the key: the bus asks it once per key,
// not once per push.
func NewSpecTable(want func(model.SpecKey) bool) *SpecTable {
	return &SpecTable{specs: make(map[model.SpecKey]model.Spec), want: want}
}

// WantSpec implements SpecWatcher.
func (t *SpecTable) WantSpec(key model.SpecKey) bool {
	if t.want == nil {
		return true
	}
	return t.want(key)
}

// InterestVersion implements SpecWatcher: want never changes.
func (t *SpecTable) InterestVersion() uint64 { return 0 }

// DeliverSpec implements SpecWatcher.
func (t *SpecTable) DeliverSpec(spec model.Spec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.specs[spec.Key()] = spec
}

// Get returns the cached spec for key.
func (t *SpecTable) Get(key model.SpecKey) (model.Spec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.specs[key]
	return s, ok
}

// Len returns the number of cached specs.
func (t *SpecTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.specs)
}

// All returns the cached specs in key order (model.SpecKey.Compare).
func (t *SpecTable) All() []model.Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]model.Spec, 0, len(t.specs))
	for _, s := range t.specs {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	return out
}
