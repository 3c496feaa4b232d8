package core

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/stats"
)

// SpecBuilder is the data-aggregation component of CPI² (Figure 6's
// "CPI sample-aggregator"): it folds per-task CPI samples into per
// job×platform CPI specs, periodically recomputing them and blending
// in history with age-weighting (the paper multiplies the previous
// day's contribution by ≈0.9 before averaging it with fresh data).
//
// SpecBuilder is safe for concurrent use: the pipeline collector feeds
// samples from many machines while the push component reads specs.
type SpecBuilder struct {
	params  Params
	metrics *Metrics     // never nil
	tracer  *trace.Store // nil = untraced
	shard   string       // aggregator shard identity; "" stamps none

	mu sync.Mutex
	// index gives every key the builder holds state for its slot in
	// slots. A key keeps its slot from the first sample or import until
	// its state is gone — its history dies, or ExportKeys hands it off —
	// and free lists the slots so let go, for the next new key.
	index         map[model.SpecKey]int32
	slots         []keySlot
	free          []int32
	lastRecompute time.Time
	// backlog is this builder's share of the SpecBacklog gauge (the
	// samples in pending); moveBacklog keeps the two in step.
	backlog int64
}

// keySlot is all the builder holds for one key: the pending interval,
// the age-weighted history and the last spec computed, each present
// when its bit in has is set. A slot with none of them is free.
//
// spec's Job and Platform name the slot's key whether or not a spec is
// present, which keeps a slot at 320 bytes; what the fold touches
// comes first, in 176 of them.
type keySlot struct {
	// gen counts the times the slot has been freed: a KeyMemo entry
	// made before the last time is stale.
	gen     uint32
	has     slotState
	pending pendingAgg
	history specHistory
	spec    model.Spec
}

func (s *keySlot) key() model.SpecKey { return s.spec.Key() }

type slotState uint8

const (
	hasPending slotState = 1 << iota
	hasHistory
	hasSpec
)

// pendingAgg accumulates the current (not yet recomputed) interval.
type pendingAgg struct {
	cpi      stats.Moments
	cpuUsage stats.Moments
	tasks    taskCounts // samples per task
	// oldest/newest bound the sample timestamps in the interval; the
	// age of oldest at recompute time is the sample-to-spec SLI.
	oldest, newest time.Time
}

// taskPageLen counters make one page of taskCounts, and indexes below
// maxDenseTask are counted in pages: whatever its index, one sample makes
// a key allocate at most the page table (maxDenseTask/taskPageLen
// pointers, 8 KiB) plus one page.
const (
	taskPageLen  = 64
	maxDenseTask = 1 << 16
)

// taskCounts counts one key's samples per task. A task of the key's own
// job with an index in [0, maxDenseTask) — all a well-behaved agent
// reports — is counted by index in lazily allocated pages, so the fold
// hashes nothing; a foreign Task.Job or any other index goes to a map.
type taskCounts struct {
	pages  []*[taskPageLen]int64 // pages[i/taskPageLen][i%taskPageLen] = samples of task i; 0 = not seen
	paged  int                   // tasks with a non-zero paged counter
	sparse map[model.TaskID]int64
}

// add counts n more samples (n > 0) for t under a key of job own, and
// returns the task's count before the call.
func (c *taskCounts) add(own model.JobName, t model.TaskID, n int64) (prev int64) {
	if t.Job != own || uint(t.Index) >= maxDenseTask {
		if c.sparse == nil {
			c.sparse = make(map[model.TaskID]int64)
		}
		prev = c.sparse[t]
		c.sparse[t] = prev + n
		return prev
	}
	p := t.Index / taskPageLen
	if p >= len(c.pages) {
		c.pages = append(c.pages, make([]*[taskPageLen]int64, p+1-len(c.pages))...)
	}
	if c.pages[p] == nil {
		c.pages[p] = new([taskPageLen]int64)
	}
	slot := &c.pages[p][t.Index%taskPageLen]
	prev = *slot
	if prev == 0 {
		c.paged++
	}
	*slot = prev + n
	return prev
}

// reset empties the interval in place for the next one. The task
// pages go; the table that held them stays.
func (a *pendingAgg) reset() {
	clear(a.tasks.pages)
	*a = pendingAgg{tasks: taskCounts{pages: a.tasks.pages}}
}

// len returns the number of distinct tasks counted.
func (c *taskCounts) len() int { return c.paged + len(c.sparse) }

// each calls f for every counted task of a key of job own, in no
// particular order.
func (c *taskCounts) each(own model.JobName, f func(model.TaskID, int64)) {
	for p, page := range c.pages {
		if page == nil {
			continue
		}
		for i, n := range page {
			if n != 0 {
				f(model.TaskID{Job: own, Index: p*taskPageLen + i}, n)
			}
		}
	}
	for t, n := range c.sparse {
		f(t, n)
	}
}

// specHistory is the age-weighted carry-over from prior intervals.
type specHistory struct {
	weight    float64 // effective sample count after decay
	mean      float64
	variance  float64
	usageMean float64
	tasks     int
	// name is the key's Name on spec_build spans, made on the first.
	name trace.Name
}

// NewSpecBuilder returns a builder using p (sanitized).
func NewSpecBuilder(p Params) *SpecBuilder {
	return &SpecBuilder{
		params:  p.Sanitize(),
		metrics: &Metrics{},
		index:   make(map[model.SpecKey]int32),
	}
}

// slotFor returns key's slot, giving the key one if it has none: the
// one way a key is resolved when no KeyMemo knows it. The caller puts
// state in a new slot before it lets go of b.mu. Callers hold b.mu.
func (b *SpecBuilder) slotFor(key model.SpecKey) int32 {
	if i, ok := b.index[key]; ok {
		return i
	}
	var i int32
	if n := len(b.free); n > 0 {
		i, b.free = b.free[n-1], b.free[:n-1]
	} else {
		i = int32(len(b.slots))
		b.slots = append(b.slots, keySlot{})
	}
	b.slots[i].spec.Job, b.slots[i].spec.Platform = key.Job, key.Platform
	b.index[key] = i
	return i
}

// lookup returns key's slot, or nil when the builder holds nothing for
// it. Callers hold b.mu.
func (b *SpecBuilder) lookup(key model.SpecKey) *keySlot {
	if i, ok := b.index[key]; ok {
		return &b.slots[i]
	}
	return nil
}

// release frees slot i, whose key's state is gone. Callers hold b.mu.
func (b *SpecBuilder) release(i int32) {
	s := &b.slots[i]
	delete(b.index, s.key())
	*s = keySlot{gen: s.gen + 1}
	b.free = append(b.free, i)
}

// SetMetrics instruments the builder with m (nil disables): specs
// computed per recompute and the pending-sample backlog gauge. The
// builder's backlog moves from the old set's gauge to m's.
func (b *SpecBuilder) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	b.mu.Lock()
	b.metrics.SpecBacklog.Add(-float64(b.backlog))
	b.metrics = m
	m.SpecBacklog.Add(float64(b.backlog))
	b.mu.Unlock()
}

// moveBacklog adds delta to the builder's backlog and to the gauge. The
// gauge is only ever moved, never Set, so builders sharing a registry
// report their sum. Callers hold b.mu.
func (b *SpecBuilder) moveBacklog(delta int64) {
	b.backlog += delta
	b.metrics.SpecBacklog.Add(float64(delta))
}

// SetTrace directs the builder's spec_build spans to store (nil
// disables, the default).
func (b *SpecBuilder) SetTrace(store *trace.Store) {
	b.mu.Lock()
	b.tracer = store
	b.mu.Unlock()
}

// SetShard stamps the builder's spec_build spans with the aggregator
// shard identity. A builder with no identity ("") stamps none.
func (b *SpecBuilder) SetShard(shard string) {
	b.mu.Lock()
	b.shard = shard
	b.mu.Unlock()
}

// Why the fold refuses a sample. The errors are sentinels and the fold
// formats nothing, so a flood of refused samples costs no allocation.
var (
	ErrSampleIncomplete = errors.New("core: sample missing job, platform or timestamp")
	ErrSampleNegative   = errors.New("core: sample with negative cpu usage or cpi")
	ErrSampleZeroCPI    = errors.New("core: sample with zero cpi")
)

// unfoldable returns why s may not enter a spec, or nil: a missing job,
// platform or timestamp, a negative value, or zero-CPI garbage (no
// instructions retired).
// Samples from tasks using almost no CPU are still aggregated — the
// spec describes the job's whole population.
func unfoldable(s *model.Sample) error {
	switch {
	case s.Job == "" || s.Platform == "" || s.Timestamp.IsZero():
		return ErrSampleIncomplete
	case s.CPUUsage < 0 || s.CPI < 0:
		return ErrSampleNegative
	case s.CPI == 0:
		return ErrSampleZeroCPI
	}
	return nil
}

// AddSample folds one sample into the pending aggregation — the batch
// fold on a batch of one. A refused sample returns one of the
// ErrSample sentinels.
func (b *SpecBuilder) AddSample(s model.Sample) error {
	if err := unfoldable(&s); err != nil {
		return err
	}
	b.foldChunk([]model.Sample{s}, 0, nil)
	return nil
}

// foldChunkLen is how many samples AddBatch judges and then folds per
// acquisition of the builder lock: one verdict bit each.
const foldChunkLen = 64

// AddBatch folds a batch into the pending aggregation, taking the
// builder lock once (once per foldChunkLen samples for larger batches).
// admit, when non-nil, is asked about every sample first — outside the
// lock — and a sample it refuses is skipped; one it admits must still
// pass the fold's own structural check. AddBatch returns how many
// samples were folded and the index of the first one (-1 if none).
// samples is only read, and not retained. memo, when non-nil, is the
// key memo of the stream the batch came from (see KeyMemo).
func (b *SpecBuilder) AddBatch(samples []model.Sample, admit func(*model.Sample) bool, memo *KeyMemo) (folded, first int) {
	first = -1
	for base := 0; base < len(samples); base += foldChunkLen {
		chunk := samples[base:min(base+foldChunkLen, len(samples))]
		var skip uint64
		for i := range chunk {
			if s := &chunk[i]; admit != nil && !admit(s) || unfoldable(s) != nil {
				skip |= 1 << i
			}
		}
		n := len(chunk) - bits.OnesCount64(skip)
		if n == 0 {
			continue
		}
		if first < 0 {
			first = base + bits.TrailingZeros64(^skip)
		}
		b.foldChunk(chunk, skip, memo)
		folded += n
	}
	return folded, first
}

// foldChunk folds the samples of chunk (at most foldChunkLen of them, not
// all skipped) whose bit in skip is clear, under one lock acquisition.
//
// A sample's key is resolved to its slot only when it differs from the
// previous sample's, so a run of one key costs one resolution. A batch
// from an agent interleaves jobs (a machine's tasks are mostly of
// different jobs), so most samples are resolved: through memo, which
// compares names by identity and hashes no string, and through the
// builder's index, hashing both names, when memo is nil or does not
// know the key yet.
func (b *SpecBuilder) foldChunk(chunk []model.Sample, skip uint64, memo *KeyMemo) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var job model.JobName
	var platform model.Platform
	var slot *keySlot
	for i := range chunk {
		if skip&(1<<i) != 0 {
			continue
		}
		s := &chunk[i]
		if slot == nil || s.Job != job || s.Platform != platform {
			job, platform = s.Job, s.Platform
			slot = &b.slots[memo.slot(b, job, platform)]
			slot.has |= hasPending
		}
		agg := &slot.pending
		agg.cpi.Add(s.CPI)
		agg.cpuUsage.Add(s.CPUUsage)
		agg.tasks.add(job, s.Task, 1)
		if agg.oldest.IsZero() || s.Timestamp.Before(agg.oldest) {
			agg.oldest = s.Timestamp
		}
		if s.Timestamp.After(agg.newest) {
			agg.newest = s.Timestamp
		}
	}
	b.moveBacklog(int64(len(chunk) - bits.OnesCount64(skip)))
}

// PendingSamples returns how many samples are queued for key in the
// current interval, for tests and introspection.
func (b *SpecBuilder) PendingSamples(key model.SpecKey) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.lookup(key); s != nil {
		return s.pending.cpi.N()
	}
	return 0
}

// Recompute folds the pending interval into history with
// age-weighting and regenerates all specs, stamped with now. It
// returns the specs that pass the robustness gates (≥ MinTasks tasks,
// ≥ MinSamplesPerTask samples per task), which are the ones the
// pipeline pushes to machines.
func (b *SpecBuilder) Recompute(now time.Time) []model.Spec {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastRecompute = now

	// Reaction-time SLI and spec_build spans, in sorted key order so
	// float accumulation and span ordering are deterministic regardless
	// of slot order.
	fresh := make([]int32, 0, len(b.index))
	for i := range b.slots {
		if b.slots[i].has&hasPending != 0 {
			fresh = append(fresh, int32(i))
		}
	}
	slices.SortFunc(fresh, func(x, y int32) int { return b.slots[x].key().Compare(b.slots[y].key()) })
	for _, i := range fresh {
		s := &b.slots[i]
		agg := &s.pending
		if agg.cpi.N() == 0 || agg.oldest.IsZero() {
			continue
		}
		age := now.Sub(agg.oldest)
		if age < 0 {
			age = 0
		}
		b.metrics.SampleToSpec.Observe(age.Seconds())
		if b.tracer != nil {
			if s.history.name == (trace.Name{}) {
				s.history.name = trace.NewName(s.key().String())
			}
			b.tracer.SpecBuild(trace.SpecID(string(s.spec.Job), string(s.spec.Platform), now), b.shard, s.history.name, now, age.Seconds(), agg.cpi.N())
		}
	}

	// Decay the history of keys with no fresh samples too, so an idle
	// job's stale spec loses influence over time; the key goes when its
	// weight drops below one sample.
	for i := range b.slots {
		s := &b.slots[i]
		if s.has&(hasHistory|hasPending) != hasHistory {
			continue
		}
		if s.history.weight *= b.params.AgeWeight; s.history.weight < 1 {
			b.release(int32(i))
		}
	}
	for _, i := range fresh {
		s := &b.slots[i]
		s.has |= hasHistory
		h, agg := &s.history, &s.pending
		if n := float64(agg.cpi.N()); n != 0 {
			// Age-weight the carried history, then merge the fresh
			// interval as a weighted combination of two populations.
			w := h.weight * b.params.AgeWeight
			freshMean := agg.cpi.Mean()
			freshVar := agg.cpi.Variance()
			tot := w + n
			delta := freshMean - h.mean
			mean := h.mean + delta*n/tot
			// Combine variances about the new mean (parallel-variance form).
			variance := (w*(h.variance+(mean-h.mean)*(mean-h.mean)) +
				n*(freshVar+(mean-freshMean)*(mean-freshMean))) / tot
			h.mean = mean
			h.variance = variance
			h.weight = tot
			h.usageMean = (w*h.usageMean + n*agg.cpuUsage.Mean()) / tot
			h.tasks = agg.tasks.len()
		}
		agg.reset()
		s.has &^= hasPending
	}

	var out []model.Spec
	for i := range b.slots {
		s := &b.slots[i]
		if s.has&hasHistory == 0 {
			continue
		}
		h := &s.history
		s.spec = model.Spec{
			Job:          s.spec.Job,
			Platform:     s.spec.Platform,
			NumSamples:   int64(h.weight + 0.5),
			NumTasks:     h.tasks,
			CPUUsageMean: h.usageMean,
			CPIMean:      h.mean,
			CPIStddev:    sqrt(h.variance),
			UpdatedAt:    now,
		}
		s.has |= hasSpec
		if s.spec.Robust(b.params.MinTasks, b.params.MinSamplesPerTask) {
			out = append(out, s.spec)
		}
	}
	slices.SortFunc(out, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	b.metrics.SpecsComputed.Add(float64(len(out)))
	b.moveBacklog(-b.backlog)
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Spec returns the latest computed spec for key (robust or not).
func (b *SpecBuilder) Spec(key model.SpecKey) (model.Spec, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.lookup(key); s != nil && s.has&hasSpec != 0 {
		return s.spec, true
	}
	return model.Spec{}, false
}

// Specs returns all computed specs, sorted by key.
func (b *SpecBuilder) Specs() []model.Spec {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]model.Spec, 0, len(b.index))
	for i := range b.slots {
		if s := &b.slots[i]; s.has&hasSpec != 0 {
			out = append(out, s.spec)
		}
	}
	slices.SortFunc(out, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	return out
}

// Due reports whether a recompute is due at now, given the configured
// SpecRecomputeInterval.
func (b *SpecBuilder) Due(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastRecompute.IsZero() {
		return true
	}
	return now.Sub(b.lastRecompute) >= b.params.SpecRecomputeInterval
}
