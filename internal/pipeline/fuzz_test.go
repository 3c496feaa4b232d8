package pipeline

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// FuzzWireDecode feeds the frame reader what a peer that is not wire v2
// sends — the corpus is the v1 newline-delimited JSON framing, frames
// well-formed and not — and arbitrary bytes grown from it: a stream
// must produce messages or an error, never a panic; an error never
// comes with a message; and a stream whose first byte is not the magic
// is refused there and then, with an error wrapping errBadFrame.
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
				if msg.Type != 0 || msg.Samples != nil || msg.Jobs != nil || msg.Spec != (model.Spec{}) || msg.TraceID != "" {
					t.Fatalf("error %v returned non-zero message %+v", err, msg)
				}
				return
			}
		}
	})
}

// limitFrame is a one-sample frame whose payload is exactly n bytes:
// the machine name is padded to fit.
func limitFrame(n int) []byte {
	const overhead = 1 + 4 + minBinSampleLen // type, count, an all-empty sample
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
		CPUUsage: 1.5, CPI: 2.25, Machine: "m1", TraceID: "00c0ffee00c0ffee",
	}
	for _, msg := range []wireMsg{
		{Type: msgSamples, Samples: []model.Sample{sample}},
		{Type: msgSubscribe},
		{Type: msgSubscribe, Jobs: []model.SpecKey{{Job: "websearch", Platform: model.PlatformA}}},
		{Type: msgSpec, TraceID: "feedfacefeedface",
			Spec: model.Spec{Job: "websearch", Platform: model.PlatformA, CPIMean: 1.6, CPIStddev: 0.2}},
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
	badStr[binHeaderLen+5], badStr[binHeaderLen+6] = 0xff, 0xff // first string length
	f.Add(badStr)
	// Unknown version, unknown message type, a v1 line after a frame.
	f.Add([]byte{binMagic, 99, 0, 0, 0, 0})
	f.Add(appendBinaryFrame(nil, wireMsg{Type: 99}))
	f.Add(append(appendBinaryFrame(nil, wireMsg{Type: msgSubscribe}), []byte("{\"type\":\"subscribe\"}\n")...))
	// The hello, and one for a version this end does not speak.
	hello := appendBinaryFrame(nil, wireMsg{Type: msgHello})
	f.Add(hello)
	hello3 := append([]byte{}, hello...)
	hello3[len(hello3)-1] = 3
	f.Add(hello3)
	// A spec refresh as a subscriber sees it: the same key twice (the
	// second decode finds both names in the table), then its job on the
	// other platform.
	spec := model.Spec{Job: "websearch", Platform: model.PlatformA, NumSamples: 48211, NumTasks: 640,
		CPUUsageMean: 1.37, CPIMean: 1.82, CPIStddev: 0.21, UpdatedAt: time.Date(2011, 11, 2, 12, 0, 0, 0, time.UTC)}
	refresh := appendBinaryFrame(nil, wireMsg{Type: msgSpec, Spec: spec, TraceID: "5f1d6c0a9b3e4d27"})
	refresh = appendBinaryFrame(refresh, wireMsg{Type: msgSpec, Spec: spec, TraceID: "5f1d6c0a9b3e4d28"})
	spec.Platform = model.PlatformB
	f.Add(appendBinaryFrame(refresh, wireMsg{Type: msgSpec, Spec: spec, TraceID: "5f1d6c0a9b3e4d29"}))
	// The decoder carries state from frame to frame (reused sample slots,
	// string memos), so every input also goes through a reader that has
	// already decoded unrelated frames sharing some of its strings — a
	// sample batch, and a spec whose platform name is a job name of the
	// input's; the two readers must agree message for message.
	warm := sample
	warm.Task.Job, warm.Machine, warm.TraceID = "elsewhere", "m0", "0123456701234567"
	prelude := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{warm, sample, warm}})
	prelude = appendBinaryFrame(prelude, wireMsg{Type: msgSpec, TraceID: "0123456701234568",
		Spec: model.Spec{Job: "elsewhere", Platform: "websearch", CPIMean: 2.5}})
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
	if a.Type != b.Type || a.TraceID != b.TraceID ||
		len(a.Samples) != len(b.Samples) || len(a.Jobs) != len(b.Jobs) {
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
// them is the validator's decision downstream).
func TestBinaryRoundTrip(t *testing.T) {
	ts := time.Date(2011, 11, 1, 0, 0, 10, 500, time.UTC)
	msgs := []wireMsg{
		{Type: msgSamples, Samples: []model.Sample{
			{Job: "websearch", Task: model.TaskID{Job: "websearch", Index: 3},
				Platform: model.PlatformA, Timestamp: ts,
				CPUUsage: 1.5, CPI: 2.25, Machine: "m1", TraceID: "00c0ffee"},
			{Job: "batch", Task: model.TaskID{Job: "batch", Index: 0},
				CPUUsage: math.NaN(), CPI: math.Inf(1)},
		}},
		{Type: msgSubscribe},
		{Type: msgSubscribe, Jobs: []model.SpecKey{
			{Job: "websearch", Platform: model.PlatformA},
			{Job: "batch", Platform: model.PlatformB},
		}},
		{Type: msgSpec, TraceID: "feedface", Spec: model.Spec{
			Job: "websearch", Platform: model.PlatformA, NumSamples: 1234,
			NumTasks: 7, CPUUsageMean: 0.5, CPIMean: 1.6, CPIStddev: 0.2,
			UpdatedAt: ts,
		}},
		{Type: msgHello},
	}
	for _, want := range msgs {
		frame := appendBinaryFrame(nil, want)
		fr := newFrameReader(bytes.NewReader(frame))
		got, err := fr.next()
		if err != nil {
			t.Fatalf("type %d: %v", want.Type, err)
		}
		if !sameWireMsg(got, want) {
			t.Errorf("type %d: round-trip mismatch: got %+v want %+v", want.Type, got, want)
		}
	}
}

// floatEq treats NaN as equal to itself (bit-level wire equality).
func floatEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
