package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestDeterministicIDs(t *testing.T) {
	a := SampleID("m003", 17).String()
	b := SampleID("m003", 17).String()
	if a != b {
		t.Fatalf("SampleID not deterministic: %q vs %q", a, b)
	}
	if a == SampleID("m004", 17).String() || a == SampleID("m003", 18).String() {
		t.Fatalf("SampleID collides across machine/seq")
	}
	if len(a) != 16 {
		t.Fatalf("SampleID length = %d, want 16", len(a))
	}
	if SampleTraceID("m003", 17) != SampleID("m003", 17) {
		t.Fatalf("SampleTraceID is not SampleID")
	}

	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	s1 := SpecID("websearch", "B", at)
	if s1 != SpecID("websearch", "B", at) {
		t.Fatalf("SpecID not deterministic")
	}
	if s1 == SpecID("websearch", "B", at.Add(time.Second)) {
		t.Fatalf("SpecID ignores UpdatedAt")
	}
	if s1 == SpecID("bigtable", "B", at) || s1 == SpecID("websearch", "C", at) {
		t.Fatalf("SpecID ignores key")
	}
}

// TestIDsAreFNV1a pins the ids to what hash/fnv and %016x give — the
// form they were first written in, which fingerprints and recorded
// traces depend on — SpecID's hash of a key's parts to the hash of the
// key, and SpecID to no allocation.
func TestIDsAreFNV1a(t *testing.T) {
	ref := func(name string, n uint64) string {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], n)
		h.Write(b[:])
		return fmt.Sprintf("%016x", h.Sum64())
	}
	at := time.Date(2011, 11, 1, 3, 0, 0, 123456789, time.UTC)
	for _, name := range []string{"", "m003", "websearch-leaf@platform-B", "näme\x00with zero"} {
		for _, n := range []uint64{0, 1, 17, 1 << 40, ^uint64(0)} {
			if got, want := SampleID(name, n).String(), ref(name, n); got != want {
				t.Errorf("SampleID(%q, %d) = %s, want %s", name, n, got, want)
			}
		}
	}
	for _, k := range [][2]string{{"", ""}, {"websearch-leaf", "platform-B"}, {"a@b", "c"}, {"näme", "\x00"}} {
		if got, want := SpecID(k[0], k[1], at).String(), ref(k[0]+"@"+k[1], uint64(at.UnixNano())); got != want {
			t.Errorf("SpecID(%q, %q) = %s, want %s", k[0], k[1], got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = SpecID("websearch-leaf", "platform-B", at) }); n != 0 {
		t.Errorf("SpecID allocates %v times, want 0", n)
	}
}

// TestParseID: only 16 lowercase hex digits are an ID; anything else is
// recorded as no ID and renders "". A real all-zero hash still renders.
func TestParseID(t *testing.T) {
	for _, s := range []string{"0123456789abcdef", "0000000000000000", "ffffffffffffffff", SampleID("m", 3).String()} {
		if got := ParseID(s).String(); got != s {
			t.Errorf("ParseID(%q) renders %q", s, got)
		}
	}
	for _, s := range []string{"", "t1", "forged", "0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0", "0123456789abcdeg", "feedface"} {
		if id := ParseID(s); id != (ID{}) || id.String() != "" {
			t.Errorf("ParseID(%q) = %+v, want no ID", s, id)
		}
	}
	s := NewStore(4)
	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	s.Ingest(ParseID("forged"), "m", "shard-0", at, 1, 1)
	s.Ingest(ParseID("0000000000000000"), "m", "shard-0", at, 1, 1)
	got := s.Recent(0)
	if got[0].TraceID != "" || got[1].TraceID != "0000000000000000" {
		t.Errorf("trace ids %q and %q, want \"\" and the zero hash", got[0].TraceID, got[1].TraceID)
	}
	if sp := s.ByTrace("0000000000000000"); len(sp) != 1 {
		t.Errorf("ByTrace(zero hash) = %+v", sp)
	}
	if sp := s.ByTrace("forged"); sp != nil {
		t.Errorf("ByTrace(forged) = %+v", sp)
	}
}

// TestIDText: an ID is its hex digits as JSON, "" for no ID, and reads
// back as ParseID reads them.
func TestIDText(t *testing.T) {
	id := SampleID("m", 3)
	b, err := json.Marshal(struct{ A, B ID }{A: id})
	if want := `{"A":"` + id.String() + `","B":""}`; err != nil || string(b) != want {
		t.Fatalf("json = %s, %v, want %s", b, err, want)
	}
	var got struct{ A, B, C ID }
	if err := json.Unmarshal([]byte(`{"A":"`+id.String()+`","B":"","C":"0123456789ABCDEF"}`), &got); err != nil ||
		got.A != id || got.B != (ID{}) || got.C != (ID{}) {
		t.Errorf("unmarshal = %+v, %v, want %v and two no-IDs", got, err, id)
	}
}

func TestRecordIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 64 {
		t.Errorf("a record is %d bytes, want at most 64", n)
	}
}

// addEvery records one span of every stage at at, with the typed
// operands the producers pass.
func addEvery(s *Store, at time.Time, key, target Name) {
	id := SampleID("machine-0001", 7)
	spec := SpecID("websearch", "platform-B", at)
	s.Sample(id, "machine-0001", at, 37)
	s.Spool(id, "machine-0001", at, 12.5, 37)
	s.Ingest(id, "machine-0001", "shard-1", at, 35, 37)
	s.SpecBuild(spec, "shard-1", key, at, 61, 2048)
	s.SpecPush(spec, "shard-1", key, at, 3)
	s.SpecRecv(spec, "machine-0001", key, at, 1.23456, 0.0005)
	s.Detect(id, "machine-0001", target, at, 300, 2.3456, 1.9999)
}

// TestRenderMatchesProducerFormats: the Span view renders each stage's
// Detail exactly as its producer used to format it.
func TestRenderMatchesProducerFormats(t *testing.T) {
	s := NewStore(0)
	at := time.Date(2011, 11, 1, 3, 0, 0, 5, time.UTC)
	key, task := NewName("websearch@platform-B"), NewName("video/3")
	addEvery(s, at, key, task)
	id, spec := SampleID("machine-0001", 7).String(), SpecID("websearch", "platform-B", at).String()
	want := []Span{
		{TraceID: id, Stage: StageSample, Machine: "machine-0001", Time: at, Detail: fmt.Sprintf("%d samples", 37)},
		{TraceID: id, Stage: StageSpool, Machine: "machine-0001", Time: at, QueueSeconds: 12.5, Detail: fmt.Sprintf("replayed %d samples", 37)},
		{TraceID: id, Stage: StageIngest, Machine: "machine-0001", Shard: "shard-1", Time: at, Detail: "35/37 samples admitted"},
		{TraceID: spec, Stage: StageSpecBuild, Shard: "shard-1", Key: "websearch@platform-B", Time: at, QueueSeconds: 61, Detail: fmt.Sprintf("%d samples", 2048)},
		{TraceID: spec, Stage: StageSpecPush, Shard: "shard-1", Key: "websearch@platform-B", Time: at, Detail: "3 watchers"},
		{TraceID: spec, Stage: StageSpecRecv, Machine: "machine-0001", Key: "websearch@platform-B", Time: at,
			Detail: fmt.Sprintf("cpi mean %.3f stddev %.3f", 1.23456, 0.0005)},
		{TraceID: id, Stage: StageDetect, Machine: "machine-0001", Key: "video/3", Time: at, QueueSeconds: 300,
			Detail: fmt.Sprintf("cpi %.3f > threshold %.3f", 2.3456, 1.9999)},
	}
	got := s.Recent(0)
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	local := time.Date(2011, 11, 1, 3, 0, 0, 5, time.Local)
	s.Sample(ParseID(id), "machine-0001", local, 1)
	if sp := s.Recent(1)[0]; sp.Time != local {
		t.Errorf("a local time renders as %v, want %v", sp.Time, local)
	}
	// A time parsed from text with an offset carries a new Location each
	// time; its span renders the same RFC 3339 text, and one zone entry
	// serves them all.
	const stamp = `"2011-11-01T05:00:00.000000005+02:00"`
	for i := 0; i < 2*maxZones; i++ {
		var zoned time.Time
		if err := zoned.UnmarshalJSON([]byte(stamp)); err != nil {
			t.Fatal(err)
		}
		s.Sample(ParseID(id), "machine-0001", zoned, 1)
		if got, err := s.Recent(1)[0].Time.MarshalJSON(); err != nil || string(got) != stamp {
			t.Fatalf("a time stamped %s renders as %s (%v)", stamp, got, err)
		}
	}
	if len(s.zones) > 2 {
		t.Errorf("%d zone entries for time.Local and one offset", len(s.zones))
	}
}

// TestStoreAddAllocatesNothing: on a warm store, recording a span of
// any stage allocates nothing.
func TestStoreAddAllocatesNothing(t *testing.T) {
	s := NewStore(64)
	key, task := NewName("websearch@platform-B"), NewName("video/3")
	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		addEvery(s, at, key, task)
	}
	if n := testing.AllocsPerRun(100, func() { addEvery(s, at, key, task) }); n != 0 {
		t.Errorf("a span of every stage costs %v allocations, want 0", n)
	}
	s.SetHorizon(time.Minute)
	if n := testing.AllocsPerRun(100, func() {
		at = at.Add(time.Second)
		addEvery(s, at, key, task)
	}); n != 0 {
		t.Errorf("with a horizon, a span of every stage costs %v allocations, want 0", n)
	}
}

// total is the number of spans s ever added: the sum of its stage
// counts.
func total(s *Store) uint64 {
	var n uint64
	for _, stage := range Stages {
		n += s.StageCount(stage)
	}
	return n
}

func TestStoreRingAndLookup(t *testing.T) {
	s := NewStore(4)
	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	id := func(i int) ID { return SampleID("m", uint64(i)) }
	for i := 0; i < 6; i++ {
		s.Sample(id(i), "m", at, i)
	}
	if got := total(s); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	all := s.Recent(0)
	if len(all) != 4 {
		t.Fatalf("Recent(0) kept %d spans, want 4 (ring capacity)", len(all))
	}
	// Oldest two evicted; survivors in order 2..5.
	for i, sp := range all {
		if want := id(i + 2).String(); sp.TraceID != want {
			t.Fatalf("span %d = %q, want %q", i, sp.TraceID, want)
		}
	}
	if got := s.Recent(2); len(got) != 2 || got[1].TraceID != id(5).String() || got[0] != all[2] {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if got := s.ByTrace(id(0).String()); got != nil {
		t.Fatalf("evicted trace still found: %+v", got)
	}
	s.Detect(id(5), "m", NewName("j/0"), at, 0, 2, 1)
	byT := s.ByTrace(id(5).String())
	if len(byT) != 2 || byT[0].Stage != StageSample || byT[1].Stage != StageDetect {
		t.Fatalf("ByTrace(5) = %+v", byT)
	}
	if got := s.StageCount(StageSample); got != 6 {
		t.Fatalf("StageCount(sample) = %d, want 6", got)
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	s.SetHorizon(time.Minute)
	addEvery(s, time.Time{}, Name{}, Name{})
	if total(s) != 0 || s.Recent(5) != nil || s.ByTrace(SampleID("m", 1).String()) != nil || s.StageCount(StageSample) != 0 {
		t.Fatalf("nil store misbehaved")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(128)
	s.SetHorizon(time.Minute)
	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	key := NewName("websearch@platform-B")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				when := at.Add(time.Duration(i) * time.Second)
				s.Ingest(SampleID("m", uint64(g*1000+i)), fmt.Sprintf("m%d", g), "shard-0", when, 1, 1)
				s.SpecPush(SpecID("websearch", "platform-B", when), "shard-0", key, when, g)
				s.Recent(10)
				s.ByTrace(SampleID("m", uint64(i)).String())
				s.StageCount(StageIngest)
			}
		}(g)
	}
	wg.Wait()
	if got := total(s); got != 3200 {
		t.Fatalf("total = %d, want 3200", got)
	}
}

// day is a retention test's clock: minute m of a day.
func day(m int) time.Time {
	return time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(m) * time.Minute)
}

// TestHorizonDropsSampleSideSpans: a sample, spool, ingest or detect
// span leaves once it is more than the horizon older than the newest
// span, and not before.
func TestHorizonDropsSampleSideSpans(t *testing.T) {
	s := NewStore(0)
	s.SetHorizon(20 * time.Minute)
	task := NewName("video/3")
	id := SampleID("m", 1)
	s.Sample(id, "m", day(0), 5)
	s.Spool(id, "m", day(0), 1, 5)
	s.Ingest(id, "m", "shard-0", day(0), 5, 5)
	s.Detect(id, "m", task, day(0), 0, 2, 1)
	s.Sample(SampleID("m", 2), "m", day(20), 5) // exactly the horizon: all stay
	if got := len(s.ByTrace(id.String())); got != 4 {
		t.Fatalf("at the horizon %d of 4 spans remain", got)
	}
	s.Sample(SampleID("m", 3), "m", day(20).Add(time.Nanosecond), 5)
	if got := s.ByTrace(id.String()); got != nil {
		t.Fatalf("past the horizon, spans remain: %+v", got)
	}
	if got := len(s.Recent(0)); got != 2 {
		t.Fatalf("store holds %d spans, want 2", got)
	}
}

// TestHorizonFollowsTheSpanJustAdded: one span stamped far ahead (a
// skewed or hostile clock) drops what is older than it by more than the
// horizon, but does not hold the cutoff: spans recorded after it at the
// usual times are kept for the horizon again.
func TestHorizonFollowsTheSpanJustAdded(t *testing.T) {
	s := NewStore(0)
	s.SetHorizon(20 * time.Minute)
	s.Sample(SampleID("m", 0), "m", day(0), 5)
	s.Ingest(SampleID("far", 0), "far", "shard-0", day(100*24*60), 5, 5)
	if got := s.ByTrace(SampleID("m", 0).String()); got != nil {
		t.Fatalf("a span a hundred days older than the one just added remains: %+v", got)
	}
	for m := 1; m <= 10; m++ {
		s.Sample(SampleID("m", uint64(m)), "m", day(m), 5)
	}
	for m := 1; m <= 10; m++ {
		if got := s.ByTrace(SampleID("m", uint64(m)).String()); len(got) != 1 {
			t.Fatalf("minute %d's span, within the horizon of the newest at minute 10, is gone", m)
		}
	}
}

// TestSpecSideKeepsNewestPerKey: a spec_build, spec_push or spec_recv
// span past the horizon stays while it is its stage and key's newest,
// however old, and leaves once a newer one of the same stage and key
// arrives. In insertion order, it reads before everything younger.
func TestSpecSideKeepsNewestPerKey(t *testing.T) {
	s := NewStore(0)
	s.SetHorizon(20 * time.Minute)
	ws, bt := NewName("websearch@B"), NewName("bigtable@B")
	push := func(key Name, job string, m int) ID {
		id := SpecID(job, "B", day(m))
		s.SpecBuild(id, "shard-0", key, day(m), 1, 10)
		s.SpecPush(id, "shard-0", key, day(m), 2)
		return id
	}
	old := push(ws, "websearch", 0)
	first := push(bt, "bigtable", 1)
	second := push(bt, "bigtable", 2)
	s.SpecRecv(old, "m", ws, day(3), 1, 0.1)
	for m := 0; m < 24*60; m += 10 {
		s.Sample(SampleID("m", uint64(m)), "m", day(m), 5)
	}
	if got := len(s.ByTrace(old.String())); got != 3 {
		t.Errorf("a day on, %d of websearch's 3 newest spec spans remain", got)
	}
	if got := len(s.ByTrace(second.String())); got != 2 {
		t.Errorf("a day on, %d of bigtable's 2 newest spec spans remain", got)
	}
	if got := s.ByTrace(first.String()); got != nil {
		t.Errorf("bigtable's superseded spec spans remain: %+v", got)
	}
	all := s.Recent(0)
	if len(all) != 5+3 || all[0].Key != "websearch@B" || all[4].Stage != StageSpecRecv || all[5].Stage != StageSample {
		t.Fatalf("retained %+v", all)
	}
	// A newer push of websearch supersedes the kept ones of its stages.
	push(ws, "websearch", 24*60)
	if got := len(s.ByTrace(old.String())); got != 1 {
		t.Errorf("after a newer build and push, %d of websearch's old spans remain, want its spec_recv", got)
	}
}

// TestCapacityCaps: the capacity is a hard ceiling, with or without a
// horizon, and each key's newest spec spans go last.
func TestCapacityCaps(t *testing.T) {
	for _, horizon := range []time.Duration{0, time.Hour} {
		s := NewStore(8)
		s.SetHorizon(horizon)
		key := NewName("websearch@B")
		spec := SpecID("websearch", "B", day(0))
		s.SpecPush(spec, "shard-0", key, day(0), 1)
		for i := 0; i < 100; i++ {
			s.Ingest(SampleID("m", uint64(i)), "m", "shard-0", day(0), 1, 1)
			if n := len(s.Recent(0)); n > 8 {
				t.Fatalf("horizon %v: store holds %d spans, capacity 8", horizon, n)
			}
		}
		all := s.Recent(0)
		if len(all) != 8 || all[0].Stage != StageSpecPush || all[7].TraceID != SampleID("m", 99).String() {
			t.Fatalf("horizon %v: at capacity: %+v", horizon, all)
		}
		for i := 0; i < 100; i++ {
			s.SpecPush(SpecID(fmt.Sprint(i), "B", day(0)), "shard-0", NewName(fmt.Sprint(i)), day(0), 1)
		}
		all = s.Recent(0)
		if len(all) != 8 || all[0].Key != "92" || all[7].Key != "99" {
			t.Fatalf("horizon %v: a store of spec pushes holds %+v, want the newest 8", horizon, all)
		}
	}
}

// TestKeptSpansLeaveRoomForIngests: an aggregator store whose spec keys
// outnumber half its capacity still holds the window's ingest spans.
// Kept spec spans take at most half the capacity; the newest of them
// stay.
func TestKeptSpansLeaveRoomForIngests(t *testing.T) {
	s := NewStore(64)
	s.SetHorizon(20 * time.Minute)
	for k := 0; k < 32; k++ {
		job := fmt.Sprintf("job%02d", k)
		id := SpecID(job, "B", day(0))
		s.SpecBuild(id, "shard-0", NewName(job+"@B"), day(0), 1, 10)
		s.SpecPush(id, "shard-0", NewName(job+"@B"), day(0), 2)
	}
	for i := 0; i < 200; i++ {
		s.Ingest(SampleID("m", uint64(i)), "m", "shard-0", day(0).Add(time.Duration(i)*time.Second), 1, 1)
	}
	counts := map[string]int{}
	for _, sp := range s.Recent(0) {
		counts[sp.Stage]++
	}
	if counts[StageIngest] < 31 || counts[StageSpecBuild]+counts[StageSpecPush] > 32 {
		t.Errorf("a 64-span store holds %v, want at least 31 ingest spans and at most 32 spec spans", counts)
	}
	if got := s.ByTrace(SpecID("job31", "B", day(0)).String()); len(got) != 2 {
		t.Errorf("the newest key's build and push: %d remain, want 2", len(got))
	}
}

// TestManySpecKeys: an aggregator pushing 1,000 jobs on 2 platforms
// records 4,000 spec spans a round against a capacity of 4,096. Each
// round supersedes every key's spans; the store holds the round's
// newest 4,096 spans, its ingests among them, with at most half its
// capacity kept, adds with no allocation, and holds no more nodes than
// its capacity and one slot per key and stage; an add does O(1) work
// whatever the number of keys (BenchmarkStoreAdd times it).
func TestManySpecKeys(t *testing.T) {
	const keys = 2000
	s := NewStore(0)
	s.SetHorizon(20 * time.Minute)
	jobs, names := make([]string, keys), make([]Name, keys)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("job%04d", i/2)
		names[i] = NewName(jobs[i] + "@" + "AB"[i%2:i%2+1])
	}
	r := 0
	round := func() {
		at := day(10 * r)
		for i, job := range jobs {
			id := SpecID(job, "AB"[i%2:i%2+1], at)
			s.SpecBuild(id, "shard-0", names[i], at, 1, 10)
			s.SpecPush(id, "shard-0", names[i], at, 2)
		}
		for m := 0; m < 100; m++ {
			s.Ingest(SampleID("m", uint64(100*r+m)), "m", "shard-0", at, 1, 1)
		}
		r++
	}
	for r < 5 {
		round()
	}
	if n := testing.AllocsPerRun(5, round); n != 0 {
		t.Errorf("a round costs %v allocations, want 0", n)
	}
	all := s.Recent(0)
	if len(all) != 4096 || s.kept.n > 2048 {
		t.Errorf("store holds %d spans, %d of them kept; want its capacity 4096, at most 2048 kept", len(all), s.kept.n)
	}
	// The round added 4,100 spans: the oldest 4, keys 0 and 1's, left.
	last := day(10 * (r - 1))
	for i, want := range map[int]int{0: 0, 1: 0, 2: 2, keys / 2: 2, keys - 1: 2} {
		if got := s.ByTrace(SpecID(jobs[i], "AB"[i%2:i%2+1], last).String()); len(got) != want {
			t.Errorf("key %s: %d of its newest build and push remain, want %d", names[i], len(got), want)
		}
	}
	if got := all[len(all)-100:]; got[0].TraceID != SampleID("m", uint64(100*(r-1))).String() || got[99].Stage != StageIngest {
		t.Errorf("the round's 100 ingests are not the newest spans held: %+v", got[0])
	}
	if len(s.nodes) > s.capacity || len(s.heads) > keys*2 {
		t.Errorf("%d nodes and %d key slots for a capacity of %d and %d spec keys and stages", len(s.nodes), len(s.heads), s.capacity, keys*2)
	}
}

// BenchmarkStoreAdd times one span added to a store at its capacity, as
// a spec build and push for each of keys spec keys and 100 ingests a
// round: the cost per span should not grow with keys.
func BenchmarkStoreAdd(b *testing.B) {
	for _, keys := range []int{16, 2000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := NewStore(0)
			s.SetHorizon(20 * time.Minute)
			names := make([]Name, keys)
			for i := range names {
				names[i] = NewName(fmt.Sprintf("job%04d@B", i))
			}
			spans := 2*keys + 100
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, j := i/spans, i%spans
				at := day(10 * r)
				switch {
				case j < 2*keys && j%2 == 0:
					s.SpecBuild(SpecID("job", "B", at), "shard-0", names[j/2], at, 1, 10)
				case j < 2*keys:
					s.SpecPush(SpecID("job", "B", at), "shard-0", names[j/2], at, 2)
				default:
					s.Ingest(SampleID("m", uint64(i)), "m", "shard-0", at, 1, 1)
				}
			}
		})
	}
}

// refStore is the retention rule written plainly, at O(held) a span:
// a FIFO of spans, where one leaving it past the horizon or for room
// is kept instead while it is its spec stage and key's newest, on a
// list of at most capacity/2 that drops its oldest when over.
type refStore struct {
	capacity     int
	horizon      time.Duration
	window, kept []refSpan
	newest       map[refKey]string
}

type refKey struct {
	st  stage
	key string
}

type refSpan struct {
	id  string
	st  stage
	key string
	at  time.Time
}

func (s *refStore) add(sp refSpan) {
	if sp.st.specSide() {
		s.newest[refKey{sp.st, sp.key}] = sp.id
		s.kept = slices.DeleteFunc(s.kept, func(o refSpan) bool { return o.st == sp.st && o.key == sp.key })
	}
	for s.horizon > 0 && len(s.window) > 0 && s.window[0].at.Before(sp.at.Add(-s.horizon)) {
		s.pop()
	}
	for len(s.window)+len(s.kept) >= s.capacity {
		if s.pop() {
			break
		}
	}
	s.window = append(s.window, sp)
}

func (s *refStore) pop() (dropped bool) {
	r := s.window[0]
	s.window = s.window[1:]
	if !r.st.specSide() || s.newest[refKey{r.st, r.key}] != r.id {
		return true
	}
	s.kept = append(s.kept, r)
	if len(s.kept) <= s.capacity/2 {
		return false
	}
	s.kept = s.kept[1:]
	return true
}

// TestStoreMatchesReference: over random spans of every stage — few
// keys, a clock that mostly creeps and sometimes leaps — a store holds
// exactly the spans, in the order, that the plain rule does.
func TestStoreMatchesReference(t *testing.T) {
	keys := []Name{NewName("a@B"), NewName("b@B"), NewName("c@B"), NewName("a@C")}
	for _, capacity := range []int{1, 5, 16, 64} {
		for _, horizon := range []time.Duration{0, 10 * time.Minute} {
			rng := rand.New(rand.NewPCG(uint64(capacity), uint64(horizon)))
			s := NewStore(capacity)
			s.SetHorizon(horizon)
			ref := &refStore{capacity: capacity, horizon: horizon, newest: map[refKey]string{}}
			at := day(0)
			for i := 0; i < 3000; i++ {
				if rng.IntN(50) == 0 {
					at = at.Add(time.Duration(rng.IntN(120)-30) * time.Minute)
				} else {
					at = at.Add(time.Duration(rng.IntN(60)) * time.Second)
				}
				id := SampleID("x", uint64(i))
				key := keys[rng.IntN(len(keys))]
				st := stage(rng.IntN(int(numStages)))
				switch st {
				case stSample:
					s.Sample(id, "m", at, 1)
				case stSpool:
					s.Spool(id, "m", at, 1, 1)
				case stIngest:
					s.Ingest(id, "m", "shard-0", at, 1, 1)
				case stSpecBuild:
					s.SpecBuild(id, "shard-0", key, at, 1, 1)
				case stSpecPush:
					s.SpecPush(id, "shard-0", key, at, 1)
				case stSpecRecv:
					s.SpecRecv(id, "m", key, at, 1, 1)
				case stDetect:
					s.Detect(id, "m", key, at, 1, 1, 1)
				}
				ref.add(refSpan{id: id.String(), st: st, key: key.String(), at: at})
				var want []string
				for _, sp := range append(slices.Clip(ref.kept), ref.window...) {
					want = append(want, sp.id)
				}
				var got []string
				for _, sp := range s.Recent(0) {
					got = append(got, sp.TraceID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("capacity %d, horizon %v, span %d: store holds\n%v\nthe rule holds\n%v", capacity, horizon, i, got, want)
				}
			}
		}
	}
}

// TestCountsNeverForget: StageCount counts every span added, whatever
// the horizon or the capacity dropped.
func TestCountsNeverForget(t *testing.T) {
	s := NewStore(4)
	s.SetHorizon(time.Minute)
	key := NewName("j/0")
	for m := 0; m < 50; m++ {
		id := SampleID("m", uint64(m))
		s.Sample(id, "m", day(m), 1)
		s.Detect(id, "m", key, day(m), 0, 2, 1)
	}
	if total(s) != 100 || s.StageCount(StageSample) != 50 || s.StageCount(StageDetect) != 50 || s.StageCount(StageIngest) != 0 {
		t.Fatalf("total %d, sample %d, detect %d", total(s), s.StageCount(StageSample), s.StageCount(StageDetect))
	}
	if s.StageCount("nonsense") != 0 {
		t.Fatal("an unknown stage has a count")
	}
	if n := len(s.Recent(0)); n != 4 {
		t.Fatalf("store holds %d spans, want 4", n)
	}
}
