package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
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
	shard   string       // aggregator shard identity; "" = unsharded

	mu            sync.Mutex
	pending       map[model.SpecKey]*pendingAgg
	history       map[model.SpecKey]*specHistory
	specs         map[model.SpecKey]model.Spec
	lastRecompute time.Time
}

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
}

// NewSpecBuilder returns a builder using p (sanitized).
func NewSpecBuilder(p Params) *SpecBuilder {
	return &SpecBuilder{
		params:  p.Sanitize(),
		metrics: &Metrics{},
		pending: make(map[model.SpecKey]*pendingAgg),
		history: make(map[model.SpecKey]*specHistory),
		specs:   make(map[model.SpecKey]model.Spec),
	}
}

// SetMetrics instruments the builder with m (nil disables): specs
// computed per recompute and the pending-sample backlog gauge.
func (b *SpecBuilder) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	b.mu.Lock()
	b.metrics = m
	b.mu.Unlock()
}

// SetTrace directs the builder's spec_build spans to store (nil
// disables, the default).
func (b *SpecBuilder) SetTrace(store *trace.Store) {
	b.mu.Lock()
	b.tracer = store
	b.mu.Unlock()
}

// SetShard stamps the builder's spec_build spans with the aggregator
// shard identity. Leave unset ("") in unsharded deployments — spans
// then serialize exactly as before sharding existed.
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

// unfoldable returns why s may not enter a spec, or nil: the rules of
// model.Sample.Validate, plus zero-CPI garbage (no instructions retired).
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
	b.foldChunk([]model.Sample{s}, 0)
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
// samples is only read, and not retained.
func (b *SpecBuilder) AddBatch(samples []model.Sample, admit func(*model.Sample) bool) (folded, first int) {
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
		b.foldChunk(chunk, skip)
		folded += n
	}
	return folded, first
}

// foldChunk folds the samples of chunk (at most foldChunkLen of them, not
// all skipped) whose bit in skip is clear, under one lock acquisition.
func (b *SpecBuilder) foldChunk(chunk []model.Sample, skip uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var key model.SpecKey
	var agg *pendingAgg
	for i := range chunk {
		if skip&(1<<i) != 0 {
			continue
		}
		s := &chunk[i]
		// Batches come in runs of one key (a machine's tasks of one
		// job); look the aggregate up once per run.
		if agg == nil || s.Job != key.Job || s.Platform != key.Platform {
			key = model.SpecKey{Job: s.Job, Platform: s.Platform}
			if agg = b.pending[key]; agg == nil {
				agg = &pendingAgg{}
				b.pending[key] = agg
			}
		}
		agg.cpi.Add(s.CPI)
		agg.cpuUsage.Add(s.CPUUsage)
		agg.tasks.add(key.Job, s.Task, 1)
		if agg.oldest.IsZero() || s.Timestamp.Before(agg.oldest) {
			agg.oldest = s.Timestamp
		}
		if s.Timestamp.After(agg.newest) {
			agg.newest = s.Timestamp
		}
	}
	b.metrics.SpecBacklog.Add(float64(len(chunk) - bits.OnesCount64(skip)))
}

// PendingSamples returns how many samples are queued for key in the
// current interval, for tests and introspection.
func (b *SpecBuilder) PendingSamples(key model.SpecKey) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if agg, ok := b.pending[key]; ok {
		return agg.cpi.N()
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
	// of map iteration order.
	freshKeys := make([]model.SpecKey, 0, len(b.pending))
	for key := range b.pending {
		freshKeys = append(freshKeys, key)
	}
	sort.Slice(freshKeys, func(i, j int) bool {
		if freshKeys[i].Job != freshKeys[j].Job {
			return freshKeys[i].Job < freshKeys[j].Job
		}
		return freshKeys[i].Platform < freshKeys[j].Platform
	})
	for _, key := range freshKeys {
		agg := b.pending[key]
		if agg.cpi.N() == 0 || agg.oldest.IsZero() {
			continue
		}
		age := now.Sub(agg.oldest)
		if age < 0 {
			age = 0
		}
		b.metrics.SampleToSpec.Observe(age.Seconds())
		b.tracer.Add(trace.Span{
			TraceID:      trace.SpecTraceID(key.String(), now),
			Stage:        trace.StageSpecBuild,
			Shard:        b.shard,
			Key:          key.String(),
			Time:         now,
			QueueSeconds: age.Seconds(),
			Detail:       fmt.Sprintf("%d samples", agg.cpi.N()),
		})
	}

	for key, agg := range b.pending {
		h := b.history[key]
		if h == nil {
			h = &specHistory{}
			b.history[key] = h
		}
		n := float64(agg.cpi.N())
		if n == 0 {
			continue
		}
		// Age-weight the carried history, then merge the fresh interval
		// as a weighted combination of two populations.
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
	// Decay history for keys with no fresh samples too, so an idle
	// job's stale spec loses influence over time.
	for key, h := range b.history {
		if _, fresh := b.pending[key]; !fresh {
			h.weight *= b.params.AgeWeight
			if h.weight < 1 {
				delete(b.history, key)
				delete(b.specs, key)
			}
		}
	}
	b.pending = make(map[model.SpecKey]*pendingAgg)

	var out []model.Spec
	for key, h := range b.history {
		spec := model.Spec{
			Job:          key.Job,
			Platform:     key.Platform,
			NumSamples:   int64(h.weight + 0.5),
			NumTasks:     h.tasks,
			CPUUsageMean: h.usageMean,
			CPIMean:      h.mean,
			CPIStddev:    sqrt(h.variance),
			UpdatedAt:    now,
		}
		b.specs[key] = spec
		if spec.Robust(b.params.MinTasks, b.params.MinSamplesPerTask) {
			out = append(out, spec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Job != out[j].Job {
			return out[i].Job < out[j].Job
		}
		return out[i].Platform < out[j].Platform
	})
	b.metrics.SpecsComputed.Add(float64(len(out)))
	b.metrics.SpecBacklog.Set(0)
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
	s, ok := b.specs[key]
	return s, ok
}

// Specs returns all computed specs, sorted by key.
func (b *SpecBuilder) Specs() []model.Spec {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]model.Spec, 0, len(b.specs))
	for _, s := range b.specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Job != out[j].Job {
			return out[i].Job < out[j].Job
		}
		return out[i].Platform < out[j].Platform
	})
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
