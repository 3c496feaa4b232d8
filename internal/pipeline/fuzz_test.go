package pipeline

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// FuzzWireDecode feeds the frame reader what a peer that speaks no
// binary wire version sends — the corpus is the v1 newline-delimited
// JSON framing, frames well-formed and not — and arbitrary bytes grown
// from it: a stream must produce messages or an error, never a panic;
// an error never comes with a message; and a stream whose first byte
// is not the magic is refused there and then, with an error wrapping
// errBadFrame.
func FuzzWireDecode(f *testing.F) {
	for _, line := range []string{
		`{"type":"samples","samples":[{"jobname":"websearch","task":{"job":"websearch","index":3},"platforminfo":"A","timestamp":"2011-11-01T00:00:00Z","cpu_usage":1.5,"cpi":2.25,"machine":"m1"}]}`,
		`{"type":"subscribe"}`,
		`{"type":"subscribe","jobs":[{"jobname":"websearch","platforminfo":"A"}]}`,
		`{"type":"spec","spec":{"jobname":"websearch","platforminfo":"A","cpi_mean":1.6,"cpi_stddev":0.2}}`,
		`{"type":"spec","spec":{"jobname":"websearch","platforminfo":"A","cpi_mean":1.6,"cpi_stddev":0.2},"trace_id":"feedfacefeedface"}`,
		`{"type":"hello","wire":2}`,
		"",
		"\n",
		"   \t  ",
		"{",
		"null",
		"[]",
		`"samples"`,
		`{"type":42}`,
		`{"type":"samples","samples":"nope"}`,
		`{"type":"samples","samples":[{"cpi":"NaN"}]}`,
		`{"type":"spec","spec":{"cpi_mean":1e309}}`,
		`{"type":"unknown-future-type","payload":{"x":1}}`,
		`{"type":"subscribe","jobs":[{"jobname":` + strings.Repeat(`"a`, 50) + `}]}`,
		"\xff\xfe{}",
		`{"type":"samples","samples":[` + strings.Repeat(`{"cpi":1},`, 100) + `{"cpi":1}]}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		for i := 0; i < 64; i++ { // bound work per input
			msg, err := fr.next()
			if i == 0 && len(stream) > 0 && stream[0] != binMagic && !errors.Is(err, errBadFrame) {
				t.Fatalf("stream starting %#02x: err = %v, want a refusal wrapping errBadFrame", stream[0], err)
			}
			if err != nil {
				if msg.Type != 0 || msg.Samples != nil || msg.Jobs != nil || msg.Spec != (model.Spec{}) {
					t.Fatalf("error %v returned non-zero message %+v", err, msg)
				}
				return
			}
		}
	})
}

// limitFrame is a one-sample frame whose payload is exactly n bytes:
// the machine name, the one field its sample sends, is padded to fit.
func limitFrame(n int) []byte {
	const overhead = 1 + 4 + minBinSampleLen + 4 // type, count, the smallest sample, the machine's length
	s := model.Sample{Machine: strings.Repeat("m", n-overhead)}
	return appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{s}})
}

// TestDecodeFrameLimits pins the protocol's size handling: a frame
// whose payload is exactly MaxFrameBytes is parsed, one byte more is
// refused with ErrFrameTooLarge from the header alone, whatever
// follows, and a stream that ends inside a header or a payload is a
// transport error, not a clean close.
func TestDecodeFrameLimits(t *testing.T) {
	atLimit := limitFrame(MaxFrameBytes)
	if len(atLimit) != binHeaderLen+MaxFrameBytes {
		t.Fatalf("test frame payload is %d bytes, want exactly %d", len(atLimit)-binHeaderLen, MaxFrameBytes)
	}
	msg, err := newFrameReader(bytes.NewReader(atLimit)).next()
	if err != nil || len(msg.Samples) != 1 {
		t.Errorf("frame at limit: %d samples, err = %v", len(msg.Samples), err)
	}
	over := limitFrame(MaxFrameBytes + 1)
	for name, stream := range map[string][]byte{
		"whole frame": over,
		"header only": over[:binHeaderLen],
	} {
		if _, err := newFrameReader(bytes.NewReader(stream)).next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("oversized frame (%s): err = %v, want ErrFrameTooLarge", name, err)
		}
	}
	for name, stream := range map[string][]byte{
		"mid-header":  atLimit[:3],
		"mid-payload": atLimit[:len(atLimit)-1],
	} {
		_, err := newFrameReader(bytes.NewReader(stream)).next()
		if !errors.Is(err, io.ErrUnexpectedEOF) || wireErrorReason(err) != "read" {
			t.Errorf("stream cut %s: err = %v (reason %s), want unexpected EOF (read)", name, err, wireErrorReason(err))
		}
	}
	if _, err := newFrameReader(bytes.NewReader(nil)).next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF (a clean close between frames)", err)
	}
}

// TestFrameReaderDropsOversizedFrames: the read loop's frame reader
// refuses a frame beyond MaxFrameBytes with ErrFrameTooLarge (the
// connection is then dropped, counted as "oversize") but passes the
// well-formed traffic before it through unharmed.
func TestFrameReaderDropsOversizedFrames(t *testing.T) {
	stream := appendBinaryFrame(nil, wireMsg{Type: msgSubscribe})
	stream = append(stream, limitFrame(MaxFrameBytes+1)...)
	fr := newFrameReader(bytes.NewReader(stream))
	msg, err := fr.next()
	if err != nil || msg.Type != msgSubscribe {
		t.Fatalf("good frame: msg=%+v err=%v", msg, err)
	}
	_, err = fr.next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	if got := wireErrorReason(err); got != "oversize" {
		t.Errorf("wireErrorReason(%v) = %q, want oversize", err, got)
	}
}

// FuzzWireDecodeBinary hammers the frame path with arbitrary bytes via
// the same streaming reader the read loops use: any input must produce
// messages and then an error or EOF, never a panic and never an
// over-allocation — a connection carries attacker-shaped data as far
// as the decoder is concerned. Seeds cover well-formed frames of each
// type, truncated length prefixes and length/payload mismatches. CI
// runs this as a short fuzz smoke on every push.
func FuzzWireDecodeBinary(f *testing.F) {
	sample := model.Sample{
		Job: "websearch", Task: model.TaskID{Job: "websearch", Index: 3},
		Platform: model.PlatformA, Timestamp: time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC),
		CPUUsage: 1.5, CPI: 2.25, Machine: "m1", TraceID: trace.HashID(0x00c0ffee00c0ffee),
	}
	for _, msg := range []wireMsg{
		{Type: msgSamples, Samples: []model.Sample{sample}},
		{Type: msgSubscribe},
		{Type: msgSubscribe, Jobs: []model.SpecKey{{Job: "websearch", Platform: model.PlatformA}}},
		{Type: msgSpec, Spec: model.Spec{Job: "websearch", Platform: model.PlatformA, CPIMean: 1.6, CPIStddev: 0.2}},
	} {
		f.Add(appendBinaryFrame(nil, msg))
	}
	full := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{sample}})
	// Truncated length prefix / truncated payload.
	f.Add(full[:3])
	f.Add(full[:binHeaderLen])
	f.Add(full[:len(full)-7])
	// Length/payload mismatches: header claims more than was sent, an
	// element count claims more than the payload holds, and an inner
	// string length runs past the payload end.
	f.Add(append(append([]byte{}, full[:binHeaderLen]...), full[binHeaderLen:len(full)-1]...))
	huge := append([]byte{}, full...)
	huge[binHeaderLen+1], huge[binHeaderLen+2] = 0xff, 0xff // element count
	f.Add(huge)
	badStr := append([]byte{}, full...)
	badStr[binHeaderLen+6], badStr[binHeaderLen+7] = 0xff, 0xff // first string length, after the mask
	f.Add(badStr)
	// Unknown version, unknown message type, a v1 line after a frame.
	f.Add([]byte{binMagic, 99, 0, 0, 0, 0})
	f.Add(appendBinaryFrame(nil, wireMsg{Type: 99}))
	f.Add(append(appendBinaryFrame(nil, wireMsg{Type: msgSubscribe}), []byte("{\"type\":\"subscribe\"}\n")...))
	// The hello, and one for a version this end does not speak.
	hello := appendBinaryFrame(nil, wireMsg{Type: msgHello})
	f.Add(hello)
	hello2 := append([]byte{}, hello...)
	hello2[len(hello2)-1] = 2
	f.Add(hello2)
	// A spec refresh as a subscriber sees it: the same key twice (the
	// second decode finds both names in the table), then its job on the
	// other platform.
	spec := model.Spec{Job: "websearch", Platform: model.PlatformA, NumSamples: 48211, NumTasks: 640,
		CPUUsageMean: 1.37, CPIMean: 1.82, CPIStddev: 0.21, UpdatedAt: time.Date(2011, 11, 2, 12, 0, 0, 0, time.UTC)}
	refresh := appendBinaryFrame(nil, wireMsg{Type: msgSpec, Spec: spec})
	refresh = appendBinaryFrame(refresh, wireMsg{Type: msgSpec, Spec: spec})
	spec.Platform = model.PlatformB
	f.Add(appendBinaryFrame(refresh, wireMsg{Type: msgSpec, Spec: spec}))
	// The decoder carries state from frame to frame (reused sample slots,
	// string memos), so every input also goes through a reader that has
	// already decoded unrelated frames sharing some of its strings — a
	// sample batch, and a spec whose platform name is a job name of the
	// input's; the two readers must agree message for message.
	warm := sample
	warm.Task.Job, warm.Machine, warm.TraceID = "elsewhere", "m0", trace.HashID(0x0123456701234567)
	prelude := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{warm, sample, warm}})
	prelude = appendBinaryFrame(prelude, wireMsg{Type: msgSpec,
		Spec: model.Spec{Job: "elsewhere", Platform: "websearch", CPIMean: 2.5}})
	// A trace id whose presence byte is neither 0 nor 1 (it sits before
	// the id's 8 bytes, the task index and the two floats).
	badID := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{sample}})
	badID[len(badID)-9-(minBinSampleLen-1)] = 2
	f.Add(badID)
	// A frame whose samples send only what changed: the first sends
	// nothing but its task index and numbers (a reader that took the
	// fields it leaves out from the previous frame would disagree with a
	// fresh one), the third repeats all but its task and numbers, the
	// fourth has another task job, another machine and no trace id, the
	// fifth goes back to the first machine with a zero timestamp.
	second, third, fourth := sample, sample, sample
	second.Task.Index, second.CPI = 4, 1.75
	third.Task.Job, third.Machine, third.TraceID = "batch", "m2", trace.ID{}
	fourth.Timestamp = time.Time{}
	bare := model.Sample{Task: model.TaskID{Index: 1}, CPI: 1}
	deltas := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{bare, sample, second, third, fourth}})
	f.Add(deltas)
	// A mask byte with a bit this end does not know.
	unknownBit := append([]byte{}, full...)
	unknownBit[binHeaderLen+5] |= sampleKnown + 1
	f.Add(unknownBit)
	// A count of 2³²−1 in a payload that holds one sample.
	maxCount := append([]byte{}, full...)
	copy(maxCount[binHeaderLen+1:], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(maxCount)
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		used := newFrameReader(io.MultiReader(bytes.NewReader(prelude), bytes.NewReader(stream)))
		if msg, err := used.next(); err != nil || len(msg.Samples) != 3 {
			t.Fatalf("prelude samples frame: %d samples, %v", len(msg.Samples), err)
		}
		if msg, err := used.next(); err != nil || msg.Spec.Job != "elsewhere" {
			t.Fatalf("prelude spec frame: %+v, %v", msg.Spec, err)
		}
		for i := 0; i < 64; i++ { // bound work per input
			msg, err := fr.next()
			umsg, uerr := used.next()
			if (err == nil) != (uerr == nil) || wireErrorReason(err) != wireErrorReason(uerr) {
				t.Fatalf("frame %d: fresh reader: %v, used reader: %v", i, err, uerr)
			}
			if err != nil {
				return
			}
			if !sameWireMsg(msg, umsg) {
				t.Fatalf("frame %d: fresh reader decoded %+v, used reader %+v", i, msg, umsg)
			}
			if msg.Type == 0 {
				continue // unknown message type, ignored by the read loops
			}
			// What decoded must survive the encoding again.
			again, err := newFrameReader(bytes.NewReader(appendBinaryFrame(nil, msg))).next()
			if err != nil || !sameWireMsg(msg, again) {
				t.Fatalf("frame %d does not re-encode: %+v became %+v, %v", i, msg, again, err)
			}
		}
	})
}

// sameSample compares bit for bit (NaN equals NaN; reflect.DeepEqual
// would not say so).
func sameSample(a, b model.Sample) bool {
	return a.Job == b.Job && a.Task == b.Task && a.Platform == b.Platform &&
		a.Timestamp.Equal(b.Timestamp) && a.Machine == b.Machine && a.TraceID == b.TraceID &&
		floatEq(a.CPUUsage, b.CPUUsage) && floatEq(a.CPI, b.CPI)
}

func sameWireMsg(a, b wireMsg) bool {
	if a.Type != b.Type || len(a.Samples) != len(b.Samples) || len(a.Jobs) != len(b.Jobs) {
		return false
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			return false
		}
	}
	for i := range a.Samples {
		if !sameSample(a.Samples[i], b.Samples[i]) {
			return false
		}
	}
	sa, sb := a.Spec, b.Spec
	return sa.Job == sb.Job && sa.Platform == sb.Platform && sa.NumSamples == sb.NumSamples &&
		sa.NumTasks == sb.NumTasks && sa.UpdatedAt.Equal(sb.UpdatedAt) && floatEq(sa.CPUUsageMean, sb.CPUUsageMean) &&
		floatEq(sa.CPIMean, sb.CPIMean) && floatEq(sa.CPIStddev, sb.CPIStddev)
}

// TestBinaryRoundTrip pins encode→decode equality for every message
// type, including NaN and Inf (they survive the framing; rejecting
// them is the validator's decision downstream), and the bytes of a
// samples frame: each sample sends a mask byte, the fields it names and
// then its task index and numbers; a trace id is a presence byte and
// the id's 8 bytes. A mask bit this end does not know, a trace id
// presence byte other than 0 or 1 and a trace id cut short are refused.
// A spec frame carries no trace id: a receiver derives it
// (trace.SpecID).
func TestBinaryRoundTrip(t *testing.T) {
	ts := time.Date(2011, 11, 1, 0, 0, 10, 500, time.UTC)
	msgs := []wireMsg{
		{Type: msgSamples, Samples: []model.Sample{
			{Job: "websearch", Task: model.TaskID{Job: "websearch", Index: 3},
				Platform: model.PlatformA, Timestamp: ts,
				CPUUsage: 1.5, CPI: 2.25, Machine: "m1", TraceID: trace.HashID(0x00c0ffee00c0ffee)},
			{Job: "batch", Task: model.TaskID{Job: "batch", Index: 0},
				CPUUsage: math.NaN(), CPI: math.Inf(1)},
			{Job: "batch", Task: model.TaskID{Job: "websearch", Index: 7},
				Platform: model.PlatformB, Timestamp: ts, CPUUsage: 0.5, CPI: 1},
		}},
		{Type: msgSubscribe},
		{Type: msgSubscribe, Jobs: []model.SpecKey{
			{Job: "websearch", Platform: model.PlatformA},
			{Job: "batch", Platform: model.PlatformB},
		}},
		{Type: msgSpec, Spec: model.Spec{
			Job: "websearch", Platform: model.PlatformA, NumSamples: 1234,
			NumTasks: 7, CPUUsageMean: 0.5, CPIMean: 1.6, CPIStddev: 0.2,
			UpdatedAt: ts,
		}},
		{Type: msgHello},
	}
	for _, want := range msgs {
		frame := appendBinaryFrame(nil, want)
		if body := len(appendSpec(nil, &want.Spec)); want.Type == msgSpec && len(frame) != binHeaderLen+1+body {
			t.Errorf("spec frame is %d bytes, want the header, the type byte and the spec's %d", len(frame), body)
		}
		fr := newFrameReader(bytes.NewReader(frame))
		got, err := fr.next()
		if err != nil {
			t.Fatalf("type %d: %v", want.Type, err)
		}
		if !sameWireMsg(got, want) {
			t.Errorf("type %d: round-trip mismatch: got %+v want %+v", want.Type, got, want)
		}
	}

	traced := model.Sample{Job: "j", Task: model.TaskID{Job: "j", Index: 3}, Platform: "p",
		Timestamp: ts, CPUUsage: 1.5, CPI: 2.25, Machine: "m1", TraceID: trace.HashID(0x00c0ffee00c0ffee)}
	untraced := traced
	untraced.Task.Index, untraced.CPI, untraced.TraceID = 4, 2, trace.ID{}
	frame := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{traced, untraced}})
	want := "b204" + "0000005e" + // magic, version, payload length 94
		"01" + "00000002" + // samples, count
		"3d" + // job, platform, timestamp, machine and trace id follow
		"00000001" + "6a" + "00000001" + "70" + // job "j", platform "p"
		"01" + "000000004eaf368a" + "000001f4" + // timestamp: present, unix seconds, nanoseconds
		"00000002" + "6d31" + // machine "m1"
		"01" + "00c0ffee00c0ffee" + // trace id: present, its hash
		"0000000000000003" + "3ff8000000000000" + "4002000000000000" + // index 3, CPU usage 1.5, CPI 2.25
		"20" + "00" + // only the trace id follows: none
		"0000000000000004" + "3ff8000000000000" + "4000000000000000" // index 4, CPU usage 1.5, CPI 2
	if got := hex.EncodeToString(frame); got != want {
		t.Errorf("samples frame\n got %s\nwant %s", got, want)
	}
	refused := map[string][]byte{}
	for _, bit := range []byte{0x40, 0x80} {
		b := slices.Clone(frame)
		b[binHeaderLen+5] |= bit
		refused[fmt.Sprintf("mask bit %#02x", bit)] = b
	}
	traceAt := binHeaderLen + 1 + 4 + 1 + 5 + 5 + 13 + 6 // the first sample's trace id
	presence := slices.Clone(frame)
	presence[traceAt] = 2
	refused["trace id presence 2"] = presence
	refused["trace id cut short"] = endFrame(slices.Clone(frame[:traceAt+5]), 0)
	for name, b := range refused {
		if got, err := newFrameReader(bytes.NewReader(b)).next(); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: decoded %+v, %v; want a refusal", name, got, err)
		}
	}
}

// The values FuzzWireSampleRoundTrip draws sample fields from. Each
// list starts with the field's zero value, and the times hold one
// instant in two zones.
var (
	rtJobs      = []model.JobName{"", "websearch", "batch"}
	rtPlatforms = []model.Platform{"", model.PlatformA, model.PlatformB}
	rtMachines  = []string{"", "m1", "machine-0421"}
	rtTimes     = []time.Time{{},
		time.Date(2011, 11, 1, 0, 0, 10, 500, time.UTC),
		time.Date(2011, 11, 1, 0, 0, 10, 500, time.UTC).In(time.FixedZone("PST", -8*3600)),
		time.Date(2011, 11, 1, 0, 1, 10, 0, time.UTC),
		time.Unix(-1, 5)}
	rtIDs     = []trace.ID{{}, trace.HashID(0), trace.HashID(math.MaxUint64), trace.SampleID("m1", 7)}
	rtNumbers = []float64{0, 1.5, -2.25, math.NaN(), math.Inf(1)}
)

// rtSamples turns script into a sample sequence, four bytes a sample:
// which of job, task job, platform, timestamp, machine and trace id
// repeat the previous sample (bits 0-5; the first sample's previous is
// the zero sample), then the picks for the fields that do not, and the
// task index and numbers. Every sequence ends in a traced, timed sample
// and one with neither, so each input has a zero timestamp and a
// change back to no trace id after an id.
func rtSamples(script []byte) []model.Sample {
	var out []model.Sample
	var prev model.Sample
	for ; len(script) >= 4; script = script[4:] {
		repeat, a, b, c := script[0], int(script[1]), int(script[2]), script[3]
		s := model.Sample{
			Job:       rtJobs[a&3%len(rtJobs)],
			Task:      model.TaskID{Job: rtJobs[a>>2&3%len(rtJobs)], Index: int(int8(c))},
			Platform:  rtPlatforms[a>>4&3%len(rtPlatforms)],
			Timestamp: rtTimes[b&7%len(rtTimes)],
			CPUUsage:  rtNumbers[int(c)%len(rtNumbers)],
			CPI:       rtNumbers[int(c>>3)%len(rtNumbers)],
			Machine:   rtMachines[a>>6%len(rtMachines)],
			TraceID:   rtIDs[b>>3&3],
		}
		for bit, keep := range []func(){
			func() { s.Job = prev.Job },
			func() { s.Task.Job = prev.Task.Job },
			func() { s.Platform = prev.Platform },
			func() { s.Timestamp = prev.Timestamp },
			func() { s.Machine = prev.Machine },
			func() { s.TraceID = prev.TraceID },
		} {
			if repeat&(1<<bit) != 0 {
				keep()
			}
		}
		out = append(out, s)
		prev = s
	}
	traced := prev
	traced.Timestamp, traced.TraceID = rtTimes[1], rtIDs[3]
	plain := traced
	plain.Timestamp, plain.TraceID = time.Time{}, trace.ID{}
	return append(out, traced, plain)
}

// FuzzWireSampleRoundTrip: whatever a sample sequence repeats from one
// sample to the next, decode(appendBinaryFrame(x)) is x, timestamps
// compared in UTC — decoded by a fresh decoder and again by the same
// one, so nothing of one frame's samples reaches the next frame's.
func FuzzWireSampleRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x55, 0x09, 0x21})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x55, 0x09, 0x21}) // the first sample is all zero fields
	f.Add([]byte{0x00, 0x55, 0x09, 0x21, 0x3f, 0x00, 0x00, 0x7f, 0x20, 0x00, 0x00, 0x80})
	f.Add([]byte{0x00, 0x96, 0x1a, 0x02, 0x08, 0x29, 0x02, 0x13, 0x37, 0x06, 0x0c, 0xff, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		want := rtSamples(script)
		frame := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: want})
		var dec decoder
		for pass := 0; pass < 2; pass++ {
			msg, err := dec.decode(frame[binHeaderLen:])
			if err != nil || msg.Type != msgSamples || len(msg.Samples) != len(want) {
				t.Fatalf("pass %d: type %d, %d samples, %v; want %d samples", pass, msg.Type, len(msg.Samples), err, len(want))
			}
			for i, got := range msg.Samples {
				if !sameSample(got, want[i]) || got.Timestamp != want[i].Timestamp.UTC() {
					t.Fatalf("pass %d, sample %d: decoded %+v, want %+v", pass, i, got, want[i])
				}
			}
		}
	})
}

// floatEq treats NaN as equal to itself (bit-level wire equality).
func floatEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzIngestMemo: whatever frames a connection sends, folding them as
// the server does (one decoder, the connection's key memo, the bus)
// leaves the builder where AddSample, one decoded sample at a time,
// leaves another. A Recompute of both follows every second frame and
// the hand-off of one key out and back (ExportKeys, ImportCheckpoint)
// every third, so keys die, leave and come back under the memo.
func FuzzIngestMemo(f *testing.F) {
	var agents []byte
	for _, fr := range agentFrames(6, true) {
		agents = append(agents, fr...)
	}
	f.Add(agents)
	// Keys that come and go: a one-sample key dies at its first idle
	// Recompute, and here comes back two frames later.
	var churn []byte
	for i, jobs := range [][]model.JobName{{"a", "b"}, {"b"}, {"b", "c"}, {"b"}, {"a", "c"}, {"a"}} {
		batch := wireBenchSamples(len(jobs))
		for j := range batch {
			batch[j].Job, batch[j].Task.Job, batch[j].Task.Index = jobs[j], jobs[j], i
		}
		churn = appendBinaryFrame(churn, wireMsg{Type: msgSamples, Samples: batch})
	}
	f.Add(churn)
	f.Add(appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: rtSamples([]byte{0x00, 0x96, 0x1a, 0x02, 0x08, 0x29, 0x02, 0x13, 0x37, 0x06, 0x0c, 0xff})}))
	f.Fuzz(func(t *testing.T, stream []byte) {
		viaMemo, oneByOne := core.NewSpecBuilder(core.DefaultParams()), core.NewSpecBuilder(core.DefaultParams())
		bus := NewBus(viaMemo)
		var memo core.KeyMemo
		fr := newFrameReader(bytes.NewReader(stream))
		at := day0
		for n := 0; n < 64; n++ { // bound work per input
			msg, err := fr.next()
			if err != nil {
				break
			}
			if msg.Type != msgSamples {
				continue
			}
			_ = bus.publish(&memo, msg.Samples)
			for _, s := range msg.Samples {
				_ = oneByOne.AddSample(s) // refused as AddBatch refuses it
			}
			if n%2 == 1 {
				at = at.Add(24 * time.Hour)
				viaMemo.Recompute(at)
				oneByOne.Recompute(at)
			}
			if keys := oneByOne.Keys(); n%3 == 2 && len(keys) > 0 {
				k := []model.SpecKey{keys[n%len(keys)]}
				// A non-finite moment fails the import on both sides.
				errA := viaMemo.ImportCheckpoint(viaMemo.ExportKeys(k, at))
				errB := oneByOne.ImportCheckpoint(oneByOne.ExportKeys(k, at))
				if (errA == nil) != (errB == nil) {
					t.Fatalf("frame %d: handing %v off and back: %v via the memo, %v one by one", n, k[0], errA, errB)
				}
			}
		}
		// %+v, not JSON: a NaN that got folded must compare too.
		if got, want := fmt.Sprintf("%+v", viaMemo.Checkpoint(at)), fmt.Sprintf("%+v", oneByOne.Checkpoint(at)); got != want {
			t.Fatalf("checkpoints differ:\nvia the memo %s\none by one   %s", got, want)
		}
	})
}
