package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// TestDecodedStringsOutliveThePayloadBuffer: the decoder memoises
// strings but never aliases the frame buffer, so what a sink copied out
// of one frame (Queue, Spooler and Quarantine copy sample structs, not
// string bytes) still reads the same after later frames have reused
// the buffer — here with same-length strings, the worst case for a view.
func TestDecodedStringsOutliveThePayloadBuffer(t *testing.T) {
	mk := func(job, machine, traceID string, pl model.Platform) []model.Sample {
		id := trace.ParseID(traceID)
		out := wireBenchSamples(4)
		for i := range out {
			out[i].Job, out[i].Task.Job = model.JobName(job), model.JobName(job)
			out[i].Machine, out[i].TraceID, out[i].Platform = machine, id, pl
		}
		out[3].Task.Job = model.JobName(strings.ToUpper(job)) // a foreign task job
		return out
	}
	first := mk("websearch-leaf", "machine-0421", "9c41e07ab2d85f63", model.PlatformA)
	second := mk("XXXXXXXXXXXXXX", "YYYYYYYYYYYY", "fedcba9876543210", model.PlatformB)
	var stream []byte
	for _, batch := range [][]model.Sample{first, second, second} {
		stream = appendBinaryFrame(stream, wireMsg{Type: msgSamples, Samples: batch})
	}
	fr := newFrameReader(bytes.NewReader(stream))
	msg, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]model.Sample(nil), msg.Samples...) // as a buffering sink copies
	for i := 0; i < 2; i++ {
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range first {
		if !sameSample(kept[i], first[i]) {
			t.Errorf("sample %d changed after its frame buffer was reused: %+v, want %+v", i, kept[i], first[i])
		}
	}
}

// TestDecoderJobMemoIsBounded: job names arrive from outside, so the
// table that memoises them is flushed at its cap and never takes a
// long name — and decodes correctly either way.
func TestDecoderJobMemoIsBounded(t *testing.T) {
	dec := new(decoder)
	batch := wireBenchSamples(16)
	var frame []byte
	for n := 0; n < 10000; n += len(batch) {
		for i := range batch {
			name := model.JobName(fmt.Sprintf("job-%05d", n+i))
			if i == 0 {
				name += model.JobName(strings.Repeat("x", maxMemoNameLen))
			}
			batch[i].Job, batch[i].Task.Job = name, name
		}
		frame = appendBinaryFrame(frame[:0], wireMsg{Type: msgSamples, Samples: batch})
		msg, err := dec.decode(frame[binHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if !sameSample(msg.Samples[i], batch[i]) {
				t.Fatalf("sample %d: decoded %+v, want %+v", n+i, msg.Samples[i], batch[i])
			}
		}
		if dec.names.n > jobMemoMax {
			t.Fatalf("after %d names the memo holds %d entries, cap %d", n+len(batch), dec.names.n, jobMemoMax)
		}
	}
	held := 0
	for _, name := range dec.names.names {
		if name != "" {
			held++
		}
		if len(name) > maxMemoNameLen {
			t.Fatalf("memo holds a %d-byte name, limit %d", len(name), maxMemoNameLen)
		}
	}
	if held != dec.names.n || held == 0 {
		t.Fatalf("memo holds %d names and counts %d: want the same, and not none", held, dec.names.n)
	}
}

// TestIngestAllocBudget is the steady-state allocation budget of the
// aggregator's ingest path: decoding a 16-sample batch from its frame,
// validating it and folding it allocates nothing, though every frame
// carries a new trace id: on a single-machine connection, no string is
// new. It is a count, not a timing, so it holds on any host. The
// ring-ownership filter of a NewShardBus shard adds nothing to it, on a
// ring of one or of four.
func TestIngestAllocBudget(t *testing.T) {
	frames := ingestFrames(2, false)
	measure := func(ring *Ring) float64 {
		v := core.NewSampleValidator("aggregator", 16)
		bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
		bus.SetValidator(v)
		if ring != nil { // the shard owning the frames' key
			self := ring.Owner(model.SpecKey{Job: "websearch-leaf", Platform: model.PlatformA})
			var err error
			if bus, err = NewShardBus(core.DefaultParams(), self, ring, nil, nil, v); err != nil {
				t.Fatal(err)
			}
		}
		dec := new(decoder)
		n := 0
		ingest := func() {
			msg, err := dec.decode(frames[n%len(frames)][binHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			_ = bus.Publish(msg.Samples) // the bus counts rejects; it never errors
			n++
		}
		ingest() // first batch: sample slots, the key's aggregate, its task page
		allocs := testing.AllocsPerRun(200, ingest)
		if got, dropped := bus.Stats(); got != int64(16*n) || dropped != 0 {
			t.Errorf("folded %d, dropped %d of %d samples", got, dropped, 16*n)
		}
		return allocs
	}
	base := measure(nil)
	if base != 0 {
		t.Errorf("ingesting a 16-sample batch costs %v allocations, budget 0", base)
	}
	for _, n := range []int{1, 4} {
		if allocs := measure(NewRing(shardNames(n), 0)); allocs != base {
			t.Errorf("with the ownership filter of a ring of %d, a batch costs %v allocations, %v without", n, allocs, base)
		}
	}
}

// TestIngestAgentBatchAllocBudget is the same budget on an agent's
// batch (agentFrames: sixteen jobs, two platforms), driven as a server
// connection drives it: decoder, the connection's key memo, bus. Nearly
// every sample resolves its key, and steady state still allocates
// nothing, before and after a Recompute. A Recompute keeps every key's
// slot, aggregate and memo entry, so after one a key's first batch
// allocates only its task page.
func TestIngestAgentBatchAllocBudget(t *testing.T) {
	frames := agentFrames(4, false)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetValidator(core.NewSampleValidator("aggregator", 16))
	dec, memo := new(decoder), new(core.KeyMemo)
	n := 0
	pass := func() {
		for range frames {
			msg, err := dec.decode(frames[n%len(frames)][binHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			_ = bus.publish(memo, msg.Samples)
			n++
		}
	}
	pass() // every key's slot, memo entry and task page
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("ingesting %d agent batches costs %v allocations, budget 0", len(frames), allocs)
	}
	keys := len(bus.Builder().Keys())
	if keys != 32 {
		t.Fatalf("%d keys, want 32", keys)
	}
	bus.Builder().Recompute(day0.Add(24 * time.Hour))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > uint64(keys) {
		t.Errorf("after a Recompute, the first batch of each of %d keys made %d allocations, budget one task page a key", keys, got)
	}
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("after a Recompute, %d agent batches cost %v allocations, budget 0", len(frames), allocs)
	}
	if got, dropped := bus.Stats(); got != int64(16*n) || dropped != 0 {
		t.Errorf("folded %d, dropped %d of %d samples", got, dropped, 16*n)
	}
}

// TestIngestSpanStampedFromFirstAdmittedSample: the ingest span must
// not take its time, trace id or machine from a sample the bus refused
// — a batch opening with a forged or zero timestamp would put the span
// at the wrong time.
func TestIngestSpanStampedFromFirstAdmittedSample(t *testing.T) {
	ring := NewRing(shardNames(2), 0)
	self := ring.Owner(model.SpecKey{Job: "websearch-leaf", Platform: model.PlatformA})
	store := trace.NewStore(8)
	bus, err := NewShardBus(core.DefaultParams(), self, ring, nil, store, core.NewSampleValidator("aggregator", 4))
	if err != nil {
		t.Fatal(err)
	}
	batch := wireBenchSamples(4)
	forged := trace.SampleID("nowhere", 1)
	batch[0].Timestamp, batch[0].TraceID, batch[0].Machine = time.Time{}, forged, "nowhere"             // quarantined
	batch[1].Job, batch[1].TraceID, batch[1].Machine = jobOwnedElsewhere(ring, self), forged, "nowhere" // misrouted
	batch[1].Timestamp = day0.Add(-1000 * time.Hour)
	if err := bus.Publish(batch); err != nil {
		t.Fatal(err)
	}
	spans := store.Recent(0)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp, want := spans[0], batch[2]
	if !sp.Time.Equal(want.Timestamp) || sp.TraceID != want.TraceID.String() || sp.Machine != want.Machine {
		t.Errorf("ingest span = {%v %q %q}, want the first admitted sample's {%v %q %q}",
			sp.Time, sp.TraceID, sp.Machine, want.Timestamp, want.TraceID, want.Machine)
	}
	if sp.Detail != "2/4 samples admitted" {
		t.Errorf("detail = %q", sp.Detail)
	}
	if got, dropped := bus.Stats(); got != 2 || dropped != 2 {
		t.Errorf("stats = %d received, %d dropped, want 2, 2", got, dropped)
	}
	// Each batch's Detail follows its own counts.
	_ = bus.Publish(batch[2:])
	_ = bus.Publish(batch[2:])
	_ = bus.Publish(batch)
	var details []string
	for _, sp := range store.Recent(0)[1:] {
		details = append(details, sp.Detail)
	}
	if want := []string{"2/2 samples admitted", "2/2 samples admitted", "2/4 samples admitted"}; !reflect.DeepEqual(details, want) {
		t.Errorf("details = %q, want %q", details, want)
	}
}

// TestIngestSpanAddsNoAllocation: a traced bus records each batch's
// ingest span without an allocation the untraced bus does not make.
func TestIngestSpanAddsNoAllocation(t *testing.T) {
	frames := ingestFrames(2, false)
	measure := func(tr *trace.Store) float64 {
		bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
		bus.SetTrace(tr)
		dec := new(decoder)
		n := 0
		ingest := func() {
			msg, err := dec.decode(frames[n%len(frames)][binHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			_ = bus.Publish(msg.Samples)
			n++
		}
		for i := 0; i < 100; i++ { // the key's aggregate, a full store
			ingest()
		}
		return testing.AllocsPerRun(200, ingest)
	}
	st := trace.NewStore(64)
	st.SetHorizon(time.Hour)
	if off, on := measure(nil), measure(st); on != off {
		t.Errorf("a traced batch costs %v allocations, an untraced one %v", on, off)
	}
	if got := st.StageCount(trace.StageIngest); got != 100+201 {
		t.Errorf("%d ingest spans, want %d", got, 100+201)
	}
}
