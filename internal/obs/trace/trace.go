// Package trace is the causal-tracing subsystem for the CPI² control
// loop. It answers "why was this task capped?" by joining the stages a
// sample batch flows through — agent sampling, spool replay, wire
// transfer, aggregator ingest, spec build, spec push, agent receipt and
// outlier detection — under one deterministic trace ID. The manager's
// decision is the incident the process logs, not a span.
//
// Determinism contract: trace IDs are pure content hashes (machine
// name × per-agent batch sequence for samples; spec key × UpdatedAt
// for specs). They never read the wall clock or any RNG, so the
// cluster fingerprint tests stay byte-identical across worker counts
// with tracing enabled. A span carries no wall-clock field: its Time and
// QueueSeconds are simulation/decision time, so a span is the same
// whichever host recorded it and however busy that host was.
//
// A store keeps spans as fixed-size records built from typed fields —
// the ID's hash, Unix time, counts and CPI values, names the producer
// already holds — so recording one allocates nothing. The Span view,
// with its hex ID and human-readable Detail, is rendered only when the
// store is read.
//
// The package is stdlib-only and deliberately does not import
// internal/model: IDs are derived from plain strings so every layer
// (model, pipeline, core, agent, cluster) can use it without cycles.
package trace

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unsafe"
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
	// StageDecision: a chain's row for the manager's ruling, rendered
	// from its incident, never stored; QueueSeconds is outlier-episode
	// start → decision (the detect-to-cap SLI).
	StageDecision = "decision"
)

// Stages lists every span stage a store records, in control-loop order.
var Stages = []string{
	StageSample, StageSpool, StageIngest, StageSpecBuild,
	StageSpecPush, StageSpecRecv, StageDetect,
}

// stage is a record's index into Stages.
type stage uint8

const (
	stSample stage = iota
	stSpool
	stIngest
	stSpecBuild
	stSpecPush
	stSpecRecv
	stDetect
	numStages
)

// specSide says whether spans of st describe a spec rather than a
// sample batch: a store keeps the newest one per key however old.
func (st stage) specSide() bool { return st >= stSpecBuild && st <= stSpecRecv }

const numSpecStages = stSpecRecv - stSpecBuild + 1

// Span is one recorded hop of the control loop, as a store renders it.
type Span struct {
	TraceID string `json:"trace_id"`
	Stage   string `json:"stage"`
	// Machine is the machine the span was recorded on (empty on the
	// aggregator side).
	Machine string `json:"machine,omitempty"`
	// Shard is the aggregator shard that recorded the span: it answers
	// "which shard built/pushed this spec?". Empty for agent-side stages
	// and on a bus with no shard identity, which stamps none.
	Shard string `json:"shard,omitempty"`
	// Key is the job×platform spec key, task ID, or other subject.
	Key string `json:"key,omitempty"`
	// Time is the simulation/decision time of the hop.
	Time time.Time `json:"time"`
	// QueueSeconds is time the subject spent waiting before this hop
	// (spool delay, spec staleness, outlier-episode age, ...).
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	// Detail is a short human-readable annotation ("37 samples",
	// "cap video/3", ...).
	Detail string `json:"detail,omitempty"`
}

// ID is a trace ID as a store keeps it: the 64-bit FNV-1a content
// hash, rendered as 16 lowercase hex digits. The zero ID is "no ID" and
// renders "".
type ID struct {
	hash uint64
	ok   bool
}

// FNV-1a, 64-bit.
const offset64, prime64 = 14695981039346656037, 1099511628211

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// hashSeq folds a zero byte, then n big-endian, into h.
func hashSeq(h, n uint64) ID {
	h *= prime64 // the zero byte: h ^ 0 is h
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (n >> shift & 0xff)) * prime64
	}
	return ID{hash: h, ok: true}
}

// SampleID is the trace ID of the seq-th sample batch built on
// machine: the FNV-1a hash of machine, a zero byte and seq (big-endian).
// No clocks, no RNG, so identical simulations produce identical IDs
// regardless of worker count or fault plan.
func SampleID(machine string, seq uint64) ID {
	return hashSeq(hashString(offset64, machine), seq)
}

// SpecID is the trace ID of a spec build: the hash of its key
// ("job@platform", hashed from the two parts without building it) and
// its UpdatedAt stamp. Both sides of the wire can compute it, so the
// spec schema itself needs no trace field.
func SpecID(job, platform string, updatedAt time.Time) ID {
	h := hashString(offset64, job)
	h = (h ^ '@') * prime64
	return hashSeq(hashString(h, platform), uint64(updatedAt.UnixNano()))
}

// HashID is the ID whose 64-bit hash is h, as Hash returns it.
func HashID(h uint64) ID { return ID{hash: h, ok: true} }

// Hash returns the ID's 64-bit hash, and false for no ID.
func (id ID) Hash() (uint64, bool) { return id.hash, id.ok }

// SampleTraceID is SampleID; only the benchmark generator still calls it.
func SampleTraceID(machine string, seq uint64) ID { return SampleID(machine, seq) }

// ParseID reads the 16-lowercase-hex-digit form. Anything else — the
// empty string, a malformed ID in JSON or a query — is no ID.
func ParseID(s string) ID {
	if len(s) != 16 {
		return ID{}
	}
	var h uint64
	var bad byte
	for i := 0; i < len(s); i++ {
		v := hexValue[s[i]]
		bad |= v
		h = h<<4 | uint64(v&0xf)
	}
	if bad&0x10 != 0 {
		return ID{}
	}
	return ID{hash: h, ok: true}
}

// hexValue is each byte's value as a lowercase hex digit, or 0x10 for
// any other byte: ParseID decodes without a branch per digit.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0x10
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// appendTo appends the ID's 16 hex digits to b (nothing for no ID).
func (id ID) appendTo(b []byte) []byte {
	if !id.ok {
		return b
	}
	const hexDigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[id.hash>>shift&0xf])
	}
	return b
}

// String renders the ID as 16 hex digits, or "" for no ID.
func (id ID) String() string {
	var buf [16]byte
	return string(id.appendTo(buf[:0]))
}

// MarshalText renders the ID as String does, so JSON shows the hex.
func (id ID) MarshalText() ([]byte, error) { return id.appendTo(nil), nil }

// UnmarshalText reads the ID as ParseID does.
func (id *ID) UnmarshalText(b []byte) error { *id = ParseID(string(b)); return nil }

// Name is a span's key or peer as its producer keeps it: a pointer to
// one string the producer built once, so that a record holds 8 bytes
// and no copy. The zero Name renders "".
type Name struct{ p *string }

// NewName makes a Name for s; producers make one per subject and keep it.
func NewName(s string) Name { return Name{&s} }

// String returns the named string.
func (n Name) String() string {
	if n.p == nil {
		return ""
	}
	return *n.p
}

// record is one stored span: 64 bytes, no string of its own. What its
// operands and names mean depends on the stage; render turns it back
// into a Span.
type record struct {
	id    uint64
	sec   int64   // Time, Unix seconds
	queue float64 // QueueSeconds
	// x and y are the Detail's operands: counts, float64 bits, or an
	// ingest's admitted and of counts packed in x and its machine's
	// length in y.
	x, y uint64
	// key is the Span's Key. other is an ingest's machine: the bytes of
	// the string its samples carried, shared, not copied.
	key   Name
	other unsafe.Pointer
	nsec  int32
	// place is the recording machine or shard, an index+1 into
	// Store.local (0: none).
	place uint16
	stage stage
	// flags holds the flag bits and, above them, the Time's zone: an
	// index+1 into Store.zones (0: UTC).
	flags uint8
}

const (
	flagID         = 1 << iota // id holds a trace ID
	flagSuperseded             // a newer span of its spec stage and key was added
	flagKept                   // on the kept list
	zoneShift      = iota      // flags>>zoneShift is the zone
)

func (r *record) before(t time.Time) bool {
	return time.Unix(r.sec, int64(r.nsec)).Before(t)
}

// node holds one retained span, on one of a store's lists.
type node struct {
	record
	prev, next int32 // neighbours on its list (next: on the free list)
}

const none = -1

// list is a doubly linked list of nodes, first to last.
type list struct {
	first, last int32
	n           int
}

func (l *list) push(nodes []node, i int32) {
	nodes[i].prev, nodes[i].next = l.last, none
	if l.last == none {
		l.first = i
	} else {
		nodes[l.last].next = i
	}
	l.last = i
	l.n++
}

func (l *list) unlink(nodes []node, i int32) {
	nd := &nodes[i]
	if nd.prev == none {
		l.first = nd.next
	} else {
		nodes[nd.prev].next = nd.next
	}
	if nd.next == none {
		l.last = nd.prev
	} else {
		nodes[nd.next].prev = nd.prev
	}
	l.n--
}

// Local-name and zone table bounds: the recording side's own few names
// (its machine, its shard) and the few zones its clocks stamp in.
const (
	maxLocalNames = 1<<16 - 1
	maxZones      = 1<<(8-zoneShift) - 1
)

// Store holds the spans one daemon records (and, in the cluster
// simulator, one per simulated agent so the parallel tick phase never
// shares write state across machines). A nil *Store is a valid no-op
// sink, which is how the uninstrumented path stays free.
//
// Retention: spans are held in the order they were added, and the
// oldest leave first — once the store records a span more than the
// horizon newer (timed by the span just recorded, so one far-off
// timestamp, a skewed clock or a hostile batch, does not hold the
// cutoff forever), or to make room under the capacity. A spec_build,
// spec_push or spec_recv span that is still the newest of its stage and
// key stays instead, however old, until a newer one arrives, on a kept
// list of at most half the capacity: when it is full, the oldest kept
// span leaves to make room, so spec keys never crowd out the window's
// spans. However many keys the store holds, recording a span does O(1)
// retention work.
type Store struct {
	mu       sync.Mutex
	capacity int
	horizon  time.Duration
	// nodes holds the retained spans, each on one list: window, the
	// spans in the order they were added, or kept, the spec-side spans
	// that left window while their stage and key's newest (in the same
	// order, and all added before anything in window). Free nodes are
	// listed from free. nodes grows by a quarter (8 at least) up to
	// capacity, so a store costs about the spans it holds: a machine's
	// store holds a few dozen.
	nodes        []node
	window, kept list
	free         int32
	// keys maps each spec-side stage's keys to a slot of heads, which
	// holds that stage and key's newest span's node. The slot of a key
	// whose last span was dropped is listed in freeHeads.
	keys      [numSpecStages]map[string]int32
	heads     []int32
	freeHeads []int32
	// local is the store's table of local names (record.place), zones
	// its table of time zones.
	local []string
	zones []*time.Location
	// perStage counts spans ever added by stage; unlike the lists it
	// never forgets, so counters survive eviction.
	perStage [numStages]uint64
}

// NewStore returns a store holding up to capacity spans (capacity <= 0
// selects 4096, and nodes are numbered by int32) with no horizon. Its
// memory grows as spans arrive.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Store{
		capacity: min(capacity, math.MaxInt32),
		window:   list{first: none, last: none},
		kept:     list{first: none, last: none},
		free:     none,
	}
}

// SetHorizon makes the store drop spans once it records one d newer,
// but for each spec-side stage and key's newest (see Store). The
// store's owner derives d from the control loop's windows; with 0, only
// the capacity bounds the store. Nil-safe.
func (s *Store) SetHorizon(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.horizon = max(d, 0)
	s.mu.Unlock()
}

// Sample records an agent's batch of n samples.
func (s *Store) Sample(id ID, machine string, at time.Time, n int) {
	if s != nil {
		s.add(record{stage: stSample, x: uint64(n)}, id, at, machine)
	}
}

// Spool records the replay of a spooled batch of n samples, delay
// seconds after its newest sample.
func (s *Store) Spool(id ID, machine string, at time.Time, delay float64, n int) {
	if s != nil {
		s.add(record{stage: stSpool, queue: delay, x: uint64(n)}, id, at, machine)
	}
}

// Ingest records a shard admitting admitted of a batch's of samples
// (fewer than 2³²), from machine.
func (s *Store) Ingest(id ID, machine, shard string, at time.Time, admitted, of int) {
	if s != nil {
		r := record{stage: stIngest, x: uint64(admitted)<<32 | uint64(uint32(of)), y: uint64(len(machine))}
		r.other = unsafe.Pointer(unsafe.StringData(machine))
		s.add(r, id, at, shard)
	}
}

// SpecBuild records a shard folding n samples, the oldest age seconds
// old, into key's spec.
func (s *Store) SpecBuild(id ID, shard string, key Name, at time.Time, age float64, n int64) {
	if s != nil {
		s.add(record{stage: stSpecBuild, key: key, queue: age, x: uint64(n)}, id, at, shard)
	}
}

// SpecPush records a shard pushing key's spec to watchers watchers.
func (s *Store) SpecPush(id ID, shard string, key Name, at time.Time, watchers int) {
	if s != nil {
		s.add(record{stage: stSpecPush, key: key, x: uint64(watchers)}, id, at, shard)
	}
}

// SpecRecv records machine receiving key's spec with the given CPI
// mean and standard deviation.
func (s *Store) SpecRecv(id ID, machine string, key Name, at time.Time, mean, stddev float64) {
	if s != nil {
		s.add(record{stage: stSpecRecv, key: key, x: math.Float64bits(mean), y: math.Float64bits(stddev)}, id, at, machine)
	}
}

// Detect records machine's detector flagging task key's sample: CPI
// cpi over threshold, judged by a spec specAge seconds old.
func (s *Store) Detect(id ID, machine string, key Name, at time.Time, specAge, cpi, threshold float64) {
	if s != nil {
		s.add(record{stage: stDetect, key: key, queue: specAge, x: math.Float64bits(cpi), y: math.Float64bits(threshold)}, id, at, machine)
	}
}

func (s *Store) add(r record, id ID, at time.Time, place string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id.ok {
		r.id, r.flags = id.hash, flagID
	}
	r.sec, r.nsec = at.Unix(), int32(at.Nanosecond())
	r.flags |= s.zoneLocked(at) << zoneShift
	r.place = s.localLocked(place)
	s.perStage[r.stage]++
	h := int32(none)
	if r.stage.specSide() {
		h = s.headLocked(&r)
		if old := s.heads[h]; old != none {
			s.supersedeLocked(old)
			s.heads[h] = none
		}
	}
	if s.horizon > 0 {
		cutoff := at.Add(-s.horizon)
		for s.window.n > 0 && s.nodes[s.window.first].before(cutoff) {
			s.popLocked()
		}
	}
	// kept holds at most capacity/2 spans, so window is never empty here.
	for s.window.n+s.kept.n >= s.capacity {
		if s.popLocked() {
			break
		}
	}
	i := s.allocLocked()
	s.nodes[i].record = r
	s.window.push(s.nodes, i)
	if h != none {
		s.heads[h] = i
	}
}

// headLocked returns the slot of heads for r's stage and key, taking a
// free one for a key with no span.
func (s *Store) headLocked(r *record) int32 {
	keys := &s.keys[r.stage-stSpecBuild]
	if h, ok := (*keys)[r.key.String()]; ok {
		return h
	}
	var h int32
	if n := len(s.freeHeads); n > 0 {
		h, s.freeHeads = s.freeHeads[n-1], s.freeHeads[:n-1]
	} else {
		h = int32(len(s.heads))
		s.heads = append(s.heads, none)
	}
	if *keys == nil {
		*keys = make(map[string]int32)
	}
	(*keys)[r.key.String()] = h
	return h
}

// supersedeLocked retires node i, the newest span of its stage and key
// until the one being added: off the kept list it is dropped now; on
// window, when it leaves.
func (s *Store) supersedeLocked(i int32) {
	if s.nodes[i].flags&flagKept != 0 {
		s.kept.unlink(s.nodes, i)
		s.freeLocked(i)
		return
	}
	s.nodes[i].flags |= flagSuperseded
}

// popLocked takes the first span off window. A spec-side span that is
// still its stage and key's newest goes on the kept list, whose oldest
// span leaves if that puts it over capacity/2 (at capacity 1, the span
// itself), leaving its stage and key with no span; any other is
// dropped. popLocked says whether a span left.
func (s *Store) popLocked() (dropped bool) {
	i := s.window.first
	s.window.unlink(s.nodes, i)
	if r := &s.nodes[i].record; !r.stage.specSide() || r.flags&flagSuperseded != 0 {
		s.freeLocked(i)
		return true
	}
	s.nodes[i].flags |= flagKept
	s.kept.push(s.nodes, i)
	if s.kept.n <= s.capacity/2 {
		return false
	}
	i = s.kept.first
	s.kept.unlink(s.nodes, i)
	keys, key := s.keys[s.nodes[i].stage-stSpecBuild], s.nodes[i].key.String()
	h := keys[key]
	delete(keys, key)
	s.heads[h] = none
	s.freeHeads = append(s.freeHeads, h)
	s.freeLocked(i)
	return true
}

// allocLocked returns a free node, growing nodes if there is none: then
// every node holds a span, and the store holds fewer than capacity.
func (s *Store) allocLocked() int32 {
	if i := s.free; i != none {
		s.free = s.nodes[i].next
		return i
	}
	if len(s.nodes) == cap(s.nodes) {
		grown := make([]node, len(s.nodes), min(len(s.nodes)+max(8, len(s.nodes)/4), s.capacity))
		copy(grown, s.nodes)
		s.nodes = grown
	}
	s.nodes = append(s.nodes, node{})
	return int32(len(s.nodes) - 1)
}

func (s *Store) freeLocked(i int32) {
	s.nodes[i] = node{next: s.free}
	s.free = i
}

// localLocked returns name's index+1 in the local table, adding it if
// new; "" (and anything past a full table) is 0.
func (s *Store) localLocked(name string) uint16 {
	if name == "" {
		return 0
	}
	for i, n := range s.local {
		if n == name {
			return uint16(i + 1)
		}
	}
	if len(s.local) == maxLocalNames {
		return 0
	}
	s.local = append(s.local, name)
	return uint16(len(s.local))
}

// zoneLocked returns the index+1 of at's zone in the zone table, adding
// it if new (0: UTC). A time parsed from text carries a new Location
// each time: one with the same name and, at that instant, the same
// offset renders the same, so it shares the entry. Past a full table a
// time renders in UTC.
func (s *Store) zoneLocked(at time.Time) uint8 {
	loc := at.Location()
	if loc == time.UTC {
		return 0
	}
	for i, z := range s.zones {
		if z == loc {
			return uint8(i + 1)
		}
	}
	name, offset := at.Zone()
	for i, z := range s.zones {
		if n, o := at.In(z).Zone(); n == name && o == offset && z.String() == loc.String() {
			return uint8(i + 1)
		}
	}
	if len(s.zones) == maxZones {
		return 0
	}
	s.zones = append(s.zones, loc)
	return uint8(len(s.zones))
}

// renderLocked turns r back into the Span its producer described.
func (s *Store) renderLocked(r *record) Span {
	t := time.Unix(r.sec, int64(r.nsec)).UTC()
	if z := r.flags >> zoneShift; z != 0 {
		t = t.In(s.zones[z-1])
	}
	sp := Span{
		Stage:        Stages[r.stage],
		Key:          r.key.String(),
		Time:         t,
		QueueSeconds: r.queue,
	}
	if r.flags&flagID != 0 {
		sp.TraceID = ID{hash: r.id, ok: true}.String()
	}
	var place string
	if r.place != 0 {
		place = s.local[r.place-1]
	}
	count := func(n uint64, unit string) string { return strconv.FormatUint(n, 10) + unit }
	switch r.stage {
	case stSample:
		sp.Machine, sp.Detail = place, count(r.x, " samples")
	case stSpool:
		sp.Machine, sp.Detail = place, "replayed "+count(r.x, " samples")
	case stIngest:
		sp.Machine, sp.Shard = unsafe.String((*byte)(r.other), r.y), place
		sp.Detail = count(r.x>>32, "/") + count(r.x&math.MaxUint32, " samples admitted")
	case stSpecBuild:
		sp.Shard, sp.Detail = place, count(r.x, " samples")
	case stSpecPush:
		sp.Shard, sp.Detail = place, count(r.x, " watchers")
	case stSpecRecv:
		sp.Machine, sp.Detail = place, "cpi mean "+fixed3(r.x)+" stddev "+fixed3(r.y)
	case stDetect:
		sp.Machine, sp.Detail = place, "cpi "+fixed3(r.x)+" > threshold "+fixed3(r.y)
	}
	return sp
}

// fixed3 renders float64 bits as %.3f does.
func fixed3(bits uint64) string {
	return strconv.FormatFloat(math.Float64frombits(bits), 'f', 3, 64)
}

// eachLocked calls f on retained spans oldest-first, skipping the
// oldest skip of them.
func (s *Store) eachLocked(skip int, f func(*record)) {
	for _, l := range [2]*list{&s.kept, &s.window} {
		for i := l.first; i != none; i = s.nodes[i].next {
			if skip > 0 {
				skip--
				continue
			}
			f(&s.nodes[i].record)
		}
	}
}

// StageCount returns how many spans of the given stage were ever
// added. Nil-safe.
func (s *Store) StageCount(stageName string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range Stages {
		if name == stageName {
			return s.perStage[i]
		}
	}
	return 0
}

// Recent returns up to n retained spans, the newest ones, oldest-first
// (n <= 0 returns all retained spans); only those are rendered.
// Nil-safe.
func (s *Store) Recent(n int) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	held := s.kept.n + s.window.n
	skip := 0
	if n > 0 && held > n {
		skip = held - n
	}
	out := make([]Span, 0, held-skip)
	s.eachLocked(skip, func(r *record) { out = append(out, s.renderLocked(r)) })
	return out
}

// ByTrace returns every retained span carrying the given trace ID,
// oldest-first. Nil-safe.
func (s *Store) ByTrace(id string) []Span {
	want := ParseID(id)
	if s == nil || !want.ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Span
	s.eachLocked(0, func(r *record) {
		if r.flags&flagID != 0 && r.id == want.hash {
			out = append(out, s.renderLocked(r))
		}
	})
	return out
}
