package pipeline

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs/trace"
)

// approxSampleBytes is the budget-accounting estimate for one spooled
// sample. The spool holds decoded model.Sample values, not wire bytes:
// a 128-byte value on a 64-bit host, plus a share of the names it points
// at, lands near this size. The spool byte budget is a back-pressure
// knob, not an exact allocator, so an estimate is fine.
const approxSampleBytes = 160

// approxBatchOverheadBytes accounts for each spooled batch's own record.
const approxBatchOverheadBytes = 48

// SpoolConfig bounds a Spooler. The zero value gets sane defaults from
// Sanitize.
type SpoolConfig struct {
	// MaxBatches caps the number of buffered batches (default 4096).
	MaxBatches int
	// MaxBytes caps the approximate buffered bytes (default 64 MiB).
	MaxBytes int64
}

// Sanitize fills defaults for unset fields.
func (c SpoolConfig) Sanitize() SpoolConfig {
	if c.MaxBatches <= 0 {
		c.MaxBatches = 4096
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	return c
}

// Replay pacing of the Start loop (TryDrain is caller-paced): the
// wait after a failed drain is a FullJitterBackoff draw whose ceiling
// starts at spoolRetryBase and doubles per consecutive failure up to
// spoolRetryMax, so a fleet of agents does not thunder back in
// lockstep.
const (
	spoolRetryBase = 200 * time.Millisecond
	spoolRetryMax  = 10 * time.Second
)

// spooledBatch is one buffered Publish call.
type spooledBatch struct {
	samples []model.Sample
	bytes   int64
}

// Spooler wraps a SampleSink with a bounded in-memory spool. While the
// downstream sink (typically a Redialer) rejects batches, Publish
// buffers them instead of losing them; on recovery the spool replays
// in original order before new traffic flows, so the aggregator sees
// samples in publish order. When the budget overflows the OLDEST
// batches are evicted first — fresh samples are worth more than stale
// ones for spec building, and the paper's stance is that losing a
// sample is harmless, just not free (the SpillDropped counter makes
// the cost visible).
//
// Replay is driven two ways: TryDrain for caller-paced replay (the
// deterministic cluster simulation calls it from the commit phase),
// and Start for an asynchronous loop with full-jitter exponential
// backoff (the real TCP agent path), which Kick wakes immediately on
// reconnect.
type Spooler struct {
	next SampleSink
	cfg  SpoolConfig

	// rand supplies the backoff randomness in [0,1).
	rand func() float64

	mu       sync.Mutex
	metrics  *Metrics     // never nil
	tracer   *trace.Store // nil = untraced
	q        []spooledBatch
	qBytes   int64
	dropped  int64
	replayed int64
	closed   bool

	// depth mirrors len(q) so Len — asked of every machine's spools on
	// every tick by the cluster simulation — and the caller-paced drain
	// of an empty spool are one atomic load instead of a lock
	// round-trip. With gaugedBytes it is also what this spool has added
	// to the depth gauges, which the spools of every shard share.
	depth       atomic.Int64
	gaugedBytes int64

	started bool
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

// NewSpooler wraps next with a spool configured by cfg.
func NewSpooler(next SampleSink, cfg SpoolConfig) *Spooler {
	return &Spooler{
		next:    next,
		cfg:     cfg.Sanitize(),
		rand:    rand.Float64,
		metrics: noMetrics,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// SetMetrics instruments the spooler (nil disables). The spool's depth
// moves from the old set's gauges to m's.
func (s *Spooler) SetMetrics(m *Metrics) {
	if m == nil {
		m = noMetrics
	}
	s.mu.Lock()
	s.metrics.SpooledBatches.Add(-float64(len(s.q)))
	s.metrics.SpooledBytes.Add(-float64(s.qBytes))
	s.metrics = m
	m.SpooledBatches.Add(float64(len(s.q)))
	m.SpooledBytes.Add(float64(s.qBytes))
	s.mu.Unlock()
}

// SetTrace directs spool-replay spans — which carry the spool-induced
// delay the batch suffered — to store (nil disables, the default).
func (s *Spooler) SetTrace(store *trace.Store) {
	s.mu.Lock()
	s.tracer = store
	s.mu.Unlock()
}

func batchBytes(samples []model.Sample) int64 {
	return approxBatchOverheadBytes + int64(len(samples))*approxSampleBytes
}

// Publish implements SampleSink. If the spool is empty it forwards
// directly; on downstream failure (or with a non-empty spool, to keep
// order) the batch is buffered and nil is returned — a spooled batch
// is not a lost batch.
func (s *Spooler) Publish(samples []model.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.next.Publish(samples)
	}
	if len(s.q) == 0 {
		if err := s.next.Publish(samples); err == nil {
			return nil
		}
		// Fall through: downstream is unhappy, start spooling.
	}
	s.enqueueLocked(samples)
	return nil
}

// enqueueLocked copies and buffers one batch, evicting oldest-first to
// respect the budget. Caller holds s.mu.
func (s *Spooler) enqueueLocked(samples []model.Sample) {
	cp := make([]model.Sample, len(samples))
	copy(cp, samples)
	b := spooledBatch{samples: cp, bytes: batchBytes(cp)}
	s.q = append(s.q, b)
	s.qBytes += b.bytes
	for len(s.q) > s.cfg.MaxBatches || (s.qBytes > s.cfg.MaxBytes && len(s.q) > 1) {
		evicted := s.q[0]
		s.q[0].samples = nil
		s.q = s.q[1:]
		s.qBytes -= evicted.bytes
		s.dropped++
		s.metrics.SpillDropped.Inc()
	}
	s.depthChangedLocked()
}

// TryDrain replays spooled batches in order until the spool is empty
// or the downstream sink errors. It returns how many batches were
// replayed and the error that stopped it (nil when drained dry).
// Concurrent Publish calls are serialized behind the drain, so replay
// order is exactly publish order.
func (s *Spooler) TryDrain() (int, error) { return s.TryDrainAt(time.Time{}) }

// TryDrainAt is TryDrain with a replay clock: when now is non-zero,
// each successfully replayed batch records a spool span whose
// QueueSeconds is the delay the batch suffered (now minus the newest
// sample timestamp in the batch) — how spool-induced latency becomes
// visible in the causal trace. The cluster simulation passes its
// deterministic commit-phase clock; callers without one use TryDrain.
func (s *Spooler) TryDrainAt(now time.Time) (int, error) {
	if s.depth.Load() == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for len(s.q) > 0 {
		head := s.q[0]
		if err := s.next.Publish(head.samples); err != nil {
			s.depthChangedLocked()
			return n, err
		}
		s.q[0].samples = nil
		s.q = s.q[1:]
		s.qBytes -= head.bytes
		s.replayed++
		s.metrics.SpoolReplayed.Inc()
		n++
		if s.tracer != nil && !now.IsZero() && len(head.samples) > 0 {
			newest := head.samples[0].Timestamp
			for _, smp := range head.samples[1:] {
				if smp.Timestamp.After(newest) {
					newest = smp.Timestamp
				}
			}
			delay := now.Sub(newest)
			if delay < 0 {
				delay = 0
			}
			first := &head.samples[0]
			s.tracer.Spool(first.TraceID, first.Machine, now, delay.Seconds(), len(head.samples))
		}
	}
	if len(s.q) == 0 {
		s.q = nil // release the backing array after a full drain
	}
	s.depthChangedLocked()
	return n, nil
}

// TakeAll removes and returns every spooled batch in publish order
// without delivering it downstream. Resharding uses it: when a
// machine's spool was pointed at a shard that no longer owns its keys,
// the backlog is lifted out and re-routed through the new ring.
// Taken batches count as neither replayed nor dropped — they are still
// in flight, just on a different route.
func (s *Spooler) TakeAll() [][]model.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) == 0 {
		return nil
	}
	out := make([][]model.Sample, len(s.q))
	for i, b := range s.q {
		out[i] = b.samples
		s.q[i].samples = nil
	}
	s.q = nil
	s.qBytes = 0
	s.depthChangedLocked()
	return out
}

// depthChangedLocked republishes the spool depth after s.q changed,
// moving the gauges by the change. Caller holds s.mu.
func (s *Spooler) depthChangedLocked() {
	n := int64(len(s.q))
	s.metrics.SpooledBatches.Add(float64(n - s.depth.Load()))
	s.metrics.SpooledBytes.Add(float64(s.qBytes - s.gaugedBytes))
	s.depth.Store(n)
	s.gaugedBytes = s.qBytes
}

// Len returns the number of batches currently spooled.
func (s *Spooler) Len() int { return int(s.depth.Load()) }

// SpoolStats is a point-in-time snapshot of spool activity.
type SpoolStats struct {
	Batches  int   // currently buffered
	Bytes    int64 // approximate buffered bytes
	Dropped  int64 // evicted over budget, ever
	Replayed int64 // successfully replayed, ever
}

// Stats snapshots the spool counters.
func (s *Spooler) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpoolStats{Batches: len(s.q), Bytes: s.qBytes, Dropped: s.dropped, Replayed: s.replayed}
}

// Kick wakes the Start loop for an immediate drain attempt (e.g. from
// Redialer.SetOnConnect). Safe to call whether or not Start ran; never
// blocks.
func (s *Spooler) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Start launches the asynchronous replay loop: wait for a Kick (or a
// periodic nudge), drain, and on failure retry with full-jitter
// exponential backoff. Call Close to stop it. Start is idempotent.
func (s *Spooler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	go s.loop()
}

func (s *Spooler) loop() {
	defer close(s.done)
	attempt := 0 // consecutive failed drains
	for {
		var wait <-chan time.Time
		if s.Len() > 0 {
			wait = time.After(s.backoff(attempt))
		}
		select {
		case <-s.stop:
			return
		case <-s.kick:
			attempt = 0
		case <-wait:
		}
		if _, err := s.TryDrain(); err != nil {
			attempt++
		} else {
			attempt = 0
		}
	}
}

// backoff is the wait before the next drain after attempt consecutive
// failures.
func (s *Spooler) backoff(attempt int) time.Duration {
	return FullJitterBackoff(attempt, spoolRetryBase, spoolRetryMax, s.rand())
}

// Close stops the replay loop (if started). Buffered batches stay in
// memory and further Publish calls pass straight through to the
// downstream sink.
func (s *Spooler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	if started {
		close(s.stop)
		<-s.done
	}
	return nil
}
