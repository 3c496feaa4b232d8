package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
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
		out := wireBenchSamples(4)
		for i := range out {
			out[i].Job, out[i].Task.Job = model.JobName(job), model.JobName(job)
			out[i].Machine, out[i].TraceID, out[i].Platform = machine, traceID, pl
		}
		out[3].Task.Job = model.JobName(strings.ToUpper(job)) // a foreign task job
		return out
	}
	first := mk("websearch-leaf", "machine-0421", "9c41e07ab2d85f63", model.PlatformA)
	second := mk("XXXXXXXXXXXXXX", "YYYYYYYYYYYY", "ZZZZZZZZZZZZZZZZ", model.PlatformB)
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
		if len(dec.jobs) > jobMemoMax {
			t.Fatalf("after %d names the memo holds %d entries, cap %d", n+len(batch), len(dec.jobs), jobMemoMax)
		}
	}
	for name := range dec.jobs {
		if len(name) > maxMemoNameLen {
			t.Fatalf("memo holds a %d-byte name, limit %d", len(name), maxMemoNameLen)
		}
	}
	if len(dec.jobs) == 0 {
		t.Fatal("memo is empty: nothing was memoised")
	}
}

// TestIngestAllocBudget is the steady-state allocation budget of the
// aggregator's ingest path: decoding a 16-sample batch from its frame,
// validating it and folding it costs at most one allocation per batch
// (the batch's trace id, new in every frame) — none per sample. It is
// a count, not a timing, so it holds on any host.
func TestIngestAllocBudget(t *testing.T) {
	frames := ingestFrames(2, false)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetValidator(core.NewSampleValidator("aggregator", 16))
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
	if allocs := testing.AllocsPerRun(200, ingest); allocs > 1 {
		t.Errorf("ingesting a 16-sample batch costs %v allocations, budget 1 per batch", allocs)
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
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetValidator(core.NewSampleValidator("aggregator", 4))
	bus.SetOwner(func(k model.SpecKey) bool { return k.Job != "not-ours" })
	store := trace.NewStore(8)
	bus.SetTrace(store)
	batch := wireBenchSamples(4)
	batch[0].Timestamp, batch[0].TraceID, batch[0].Machine = time.Time{}, "forged", "nowhere" // quarantined
	batch[1].Job, batch[1].TraceID, batch[1].Machine = "not-ours", "forged", "nowhere"        // misrouted
	batch[1].Timestamp = day0.Add(-1000 * time.Hour)
	if err := bus.Publish(batch); err != nil {
		t.Fatal(err)
	}
	spans := store.Recent(0)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp, want := spans[0], batch[2]
	if !sp.Time.Equal(want.Timestamp) || sp.TraceID != want.TraceID || sp.Machine != want.Machine {
		t.Errorf("ingest span = {%v %q %q}, want the first admitted sample's {%v %q %q}",
			sp.Time, sp.TraceID, sp.Machine, want.Timestamp, want.TraceID, want.Machine)
	}
	if sp.Detail != "2/4 samples admitted" {
		t.Errorf("detail = %q", sp.Detail)
	}
	if got, dropped := bus.Stats(); got != 2 || dropped != 2 {
		t.Errorf("stats = %d received, %d dropped, want 2, 2", got, dropped)
	}
	// The detail string is cached between batches; it must follow the counts.
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
