// Package trace is the causal-tracing subsystem for the CPI² control
// loop. It answers "why was this task capped?" by joining the stages a
// sample batch flows through — agent sampling, spool replay, wire
// transfer, aggregator ingest, spec build, spec push, agent receipt,
// outlier detection, and the enforcer's cap decision — under one
// deterministic trace ID.
//
// Determinism contract: trace IDs are pure content hashes (machine
// name × per-agent batch sequence for samples; spec key × UpdatedAt
// for specs). They never read the wall clock or any RNG, so the
// cluster fingerprint tests stay byte-identical across worker counts
// with tracing enabled. Span *timestamps* are simulation time; the
// only wall-clock fields (ProcSeconds) are filled from reads that the
// callers already gate on instrumentation being enabled, exactly like
// the correlation timer in core/manager.go.
//
// The package is stdlib-only and deliberately does not import
// internal/model: IDs are derived from plain strings so every layer
// (pipeline, core, agent, cluster) can use it without cycles.
package trace

import (
	"sync"
	"time"
)

// Span stages, in control-loop order. The values appear on the wire
// of /debug/trace and in `cpi2ctl trace` output, so they are part of
// the operator-facing vocabulary.
const (
	// StageSample: an agent built a sample batch (one span per batch).
	StageSample = "sample"
	// StageSpool: a spooled batch was replayed after an outage;
	// QueueSeconds is the spool-induced delay.
	StageSpool = "spool"
	// StageIngest: the aggregator's bus accepted a sample batch.
	StageIngest = "ingest"
	// StageSpecBuild: a recompute round folded pending samples into a
	// spec; QueueSeconds is the age of the oldest folded sample.
	StageSpecBuild = "spec_build"
	// StageSpecPush: a freshly built spec was pushed to watchers.
	StageSpecPush = "spec_push"
	// StageSpecRecv: an agent received a spec update.
	StageSpecRecv = "spec_recv"
	// StageDetect: the detector flagged a sample as anomalous;
	// QueueSeconds is the staleness of the spec used for the call.
	StageDetect = "detect"
	// StageDecision: the enforcer ruled on the anomaly; QueueSeconds
	// is outlier-episode-start → decision (the detect-to-cap SLI) and
	// ProcSeconds the correlation wall time when instrumented.
	StageDecision = "decision"
)

// Stages lists every span stage in control-loop order.
var Stages = []string{
	StageSample, StageSpool, StageIngest, StageSpecBuild,
	StageSpecPush, StageSpecRecv, StageDetect, StageDecision,
}

// Span is one recorded hop of the control loop.
type Span struct {
	TraceID string `json:"trace_id"`
	Stage   string `json:"stage"`
	// Machine is the machine the span was recorded on (empty on the
	// aggregator side).
	Machine string `json:"machine,omitempty"`
	// Shard is the aggregator shard that recorded the span (empty in
	// unsharded deployments and for agent-side stages). With a sharded
	// spec tier it answers "which shard built/pushed this spec?".
	Shard string `json:"shard,omitempty"`
	// Key is the job×platform spec key, task ID, or other subject.
	Key string `json:"key,omitempty"`
	// Time is the simulation/decision time of the hop.
	Time time.Time `json:"time"`
	// QueueSeconds is time the subject spent waiting before this hop
	// (spool delay, spec staleness, outlier-episode age, ...).
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	// ProcSeconds is wall-clock processing time for the hop. Callers
	// only fill it from timers that are gated on instrumentation, so
	// uninstrumented runs make zero clock reads.
	ProcSeconds float64 `json:"proc_seconds,omitempty"`
	// Detail is a short human-readable annotation ("37 samples",
	// "cap video/3", ...).
	Detail string `json:"detail,omitempty"`
}

// Store is a bounded ring of spans, one per daemon (and, in the
// cluster simulator, one per simulated agent so the parallel tick
// phase never shares write state across machines). A nil *Store is a
// valid no-op sink, which is how the uninstrumented path stays free.
type Store struct {
	mu       sync.Mutex
	capacity int
	// buf grows lazily (by append) up to capacity, then wraps as a
	// ring. A freshly created store therefore costs a few words, not
	// capacity×sizeof(Span) — a 100k-machine cluster creates one store
	// per machine and most record only a handful of spans.
	buf   []Span
	next  int
	full  bool
	total uint64
	// perStage counts spans ever added by stage; unlike the ring it
	// never forgets, so counters survive wraparound.
	perStage map[string]uint64
}

// NewStore returns a ring store holding up to capacity spans
// (capacity <= 0 selects 4096). Ring memory is allocated lazily as
// spans arrive.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Store{capacity: capacity}
}

// Add records one span. Nil-safe.
func (s *Store) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.full && len(s.buf) < s.capacity {
		s.buf = append(s.buf, sp)
		s.next = len(s.buf)
		if s.next == s.capacity {
			s.next = 0
			s.full = true
		}
	} else {
		s.buf[s.next] = sp
		s.next++
		if s.next == len(s.buf) {
			s.next = 0
			s.full = true
		}
	}
	s.total++
	if s.perStage == nil {
		s.perStage = make(map[string]uint64)
	}
	s.perStage[sp.Stage]++
	s.mu.Unlock()
}

// Total returns the number of spans ever added (including ones the
// ring has since evicted). Nil-safe.
func (s *Store) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// StageCount returns how many spans of the given stage were ever
// added. Nil-safe.
func (s *Store) StageCount(stage string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perStage[stage]
}

// snapshot returns the retained spans oldest-first. Caller holds no
// lock; the result is a copy.
func (s *Store) snapshotLocked() []Span {
	var out []Span
	if s.full {
		out = append(out, s.buf[s.next:]...)
	}
	out = append(out, s.buf[:s.next]...)
	cp := make([]Span, len(out))
	copy(cp, out)
	return cp
}

// Recent returns up to n retained spans, oldest-first (n <= 0 returns
// all retained spans). Nil-safe.
func (s *Store) Recent(n int) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.snapshotLocked()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// ByTrace returns every retained span carrying the given trace ID,
// oldest-first. Nil-safe.
func (s *Store) ByTrace(id string) []Span {
	if s == nil || id == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Span
	for _, sp := range s.snapshotLocked() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

// SampleTraceID derives the deterministic trace ID for the seq-th
// sample batch built on machine. It is a pure FNV-1a content hash —
// no clocks, no RNG — so identical simulations produce identical IDs
// regardless of worker count or fault plan.
func SampleTraceID(machine string, seq uint64) string {
	return contentID(machine, seq)
}

// SpecTraceID derives the deterministic trace ID for a spec build,
// from the spec key ("job@platform") and its UpdatedAt stamp. Both
// sides of the wire can compute it independently, so the spec schema
// itself does not need a trace field.
func SpecTraceID(key string, updatedAt time.Time) string {
	return contentID(key, uint64(updatedAt.UnixNano()))
}

// contentID is the 64-bit FNV-1a hash of name, a zero byte and n
// (big-endian), as 16 hex digits. Written out rather than through
// hash/fnv and fmt: the spec push computes one per delivery, and this
// form allocates only the result.
func contentID(name string, n uint64) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	h *= prime64 // the zero byte: h ^ 0 is h
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (n >> shift & 0xff)) * prime64
	}
	const hexDigits = "0123456789abcdef"
	var out [16]byte
	for i := range out {
		out[i] = hexDigits[h>>(60-4*i)&0xf]
	}
	return string(out[:])
}
