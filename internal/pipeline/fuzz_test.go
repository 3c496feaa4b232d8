package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// FuzzWireDecode hammers the newline-delimited JSON wire protocol's
// frame decoder with arbitrary bytes: any input must produce a message
// or an error, never a panic — an agent connection carries
// attacker-shaped data as far as the decoder is concerned. CI runs
// this as a short fuzz smoke on every push.
func FuzzWireDecode(f *testing.F) {
	// Valid frames of each message type, as the encoder produces them.
	sample := model.Sample{
		Job: "websearch", Task: model.TaskID{Job: "websearch", Index: 3},
		Platform: model.PlatformA, Timestamp: time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC),
		CPUUsage: 1.5, CPI: 2.25, Machine: "m1",
	}
	traced := sample
	traced.TraceID = "00c0ffee00c0ffee"
	for _, msg := range []wireMsg{
		// Old shape: no trace fields anywhere (pre-tracing agents).
		{Type: msgSamples, Samples: []model.Sample{sample}},
		{Type: msgSubscribe},
		{Type: msgSubscribe, Jobs: []model.SpecKey{{Job: "websearch", Platform: model.PlatformA}}},
		{Type: msgSpec, Spec: &model.Spec{Job: "websearch", Platform: model.PlatformA, CPIMean: 1.6, CPIStddev: 0.2}},
		// New shape: trace context on the sample and on the envelope.
		{Type: msgSamples, Samples: []model.Sample{traced}},
		{Type: msgSpec, TraceID: "feedfacefeedface",
			Spec: &model.Spec{Job: "websearch", Platform: model.PlatformA, CPIMean: 1.6, CPIStddev: 0.2}},
	} {
		b, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Malformed and adversarial frames.
	for _, s := range []string{
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
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := decodeFrame(frame)
		if err != nil {
			if msg.Type != "" || msg.Samples != nil || msg.Jobs != nil || msg.Spec != nil || msg.TraceID != "" {
				t.Fatalf("error %v returned non-zero message %+v", err, msg)
			}
			return
		}
		// A successfully decoded frame must round-trip through the
		// encoder without error (it feeds straight into bus handling).
		if _, err := json.Marshal(msg); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
	})
}

// TestDecodeFrameLimits pins the protocol's size handling: frames over
// MaxFrameBytes are rejected with ErrFrameTooLarge regardless of
// content, frames at the limit are parsed, and blank lines are
// reported as empty (and skipped by read loops).
func TestDecodeFrameLimits(t *testing.T) {
	big := append([]byte(`{"type":"`), bytes.Repeat([]byte("a"), MaxFrameBytes)...)
	big = append(big, []byte(`"}`)...)
	if _, err := decodeFrame(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	atLimit := append([]byte(`{"type":"`), bytes.Repeat([]byte("a"), MaxFrameBytes-11)...)
	atLimit = append(atLimit, []byte(`"}`)...)
	if len(atLimit) != MaxFrameBytes {
		t.Fatalf("test frame is %d bytes, want exactly %d", len(atLimit), MaxFrameBytes)
	}
	if _, err := decodeFrame(atLimit); err != nil {
		t.Errorf("frame at limit: %v", err)
	}
	for _, blank := range [][]byte{nil, {}, []byte("  "), []byte("\t\r")} {
		if _, err := decodeFrame(blank); !errors.Is(err, errEmptyFrame) {
			t.Errorf("blank frame %q: err = %v, want errEmptyFrame", blank, err)
		}
	}
}

// TestFrameReaderDropsOversizedFrames: the read loop's frame reader
// refuses frames beyond MaxFrameBytes with ErrFrameTooLarge (the
// connection is then dropped) but passes well-formed traffic through
// unharmed — in both framings, through the one shared code path.
func TestFrameReaderDropsOversizedFrames(t *testing.T) {
	good := `{"type":"subscribe"}`
	fr := newFrameReader(strings.NewReader(good + "\n" + strings.Repeat("x", MaxFrameBytes+5) + "\n"))
	msg, err := fr.next()
	if err != nil || msg.Type != msgSubscribe {
		t.Fatalf("good frame: msg=%+v err=%v", msg, err)
	}
	if _, err := fr.next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized JSON frame: err = %v, want ErrFrameTooLarge", err)
	}

	// Binary framing: a declared payload length over the limit is
	// rejected from the header alone, before any payload is read.
	hdr := []byte{binMagic, binVersion, 0, 0, 0, 0}
	n := uint32(MaxFrameBytes + 1)
	hdr[2], hdr[3], hdr[4], hdr[5] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	fr = newFrameReader(bytes.NewReader(hdr))
	if _, err := fr.next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized binary frame: err = %v, want ErrFrameTooLarge", err)
	}

	if got := wireErrorReason(ErrFrameTooLarge); got != "oversize" {
		t.Errorf("wireErrorReason(ErrFrameTooLarge) = %q, want oversize", got)
	}
}

// FuzzWireDecodeBinary hammers the binary v2 frame path with arbitrary
// bytes via the same streaming reader the read loops use: any input
// must produce messages and then an error or EOF, never a panic and
// never an over-allocation. Seeds cover well-formed frames of each
// type, truncated length prefixes, and length/payload mismatches.
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
			Spec: &model.Spec{Job: "websearch", Platform: model.PlatformA, CPIMean: 1.6, CPIStddev: 0.2}},
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
	// Unknown version, unknown message type, JSON interleaved.
	f.Add([]byte{binMagic, 99, 0, 0, 0, 0})
	f.Add(appendBinaryFrame(nil, wireMsg{Type: "unknown-future-type"}))
	f.Add(append(appendBinaryFrame(nil, wireMsg{Type: msgSubscribe}), []byte("{\"type\":\"subscribe\"}\n")...))
	// The decoder carries state from frame to frame (reused sample slots,
	// string memos), so every input also goes through a reader that has
	// already decoded an unrelated frame sharing some of its strings; the
	// two readers must agree message for message.
	warm := sample
	warm.Task.Job, warm.Machine, warm.TraceID = "elsewhere", "m0", "0123456701234567"
	prelude := appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: []model.Sample{warm, sample, warm}})
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		used := newFrameReader(io.MultiReader(bytes.NewReader(prelude), bytes.NewReader(stream)))
		if msg, err := used.next(); err != nil || len(msg.Samples) != 3 {
			t.Fatalf("prelude frame: %d samples, %v", len(msg.Samples), err)
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
			data := msg.Type == msgSamples || msg.Type == msgSubscribe || msg.Type == msgSpec && msg.Spec != nil
			if !data {
				// Unknown frame type (ignored by the read loops), or a JSON
				// frame with no binary encoding: keep reading.
				continue
			}
			// What decoded must survive the binary encoding again. (Not
			// JSON: a binary frame can carry NaN and years past 9999.)
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
	if a.Type != b.Type || a.TraceID != b.TraceID || a.Wire != b.Wire ||
		len(a.Samples) != len(b.Samples) || len(a.Jobs) != len(b.Jobs) || (a.Spec == nil) != (b.Spec == nil) {
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
	if a.Spec == nil {
		return true
	}
	sa, sb := *a.Spec, *b.Spec
	return sa.Job == sb.Job && sa.Platform == sb.Platform && sa.NumSamples == sb.NumSamples &&
		sa.NumTasks == sb.NumTasks && sa.UpdatedAt.Equal(sb.UpdatedAt) && floatEq(sa.CPUUsageMean, sb.CPUUsageMean) &&
		floatEq(sa.CPIMean, sb.CPIMean) && floatEq(sa.CPIStddev, sb.CPIStddev)
}

// TestBinaryRoundTrip pins encode→decode equality for every message
// type, including values JSON cannot carry (NaN CPI survives the
// binary framing; the validator rejects it downstream either way).
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
		{Type: msgSpec, TraceID: "feedface", Spec: &model.Spec{
			Job: "websearch", Platform: model.PlatformA, NumSamples: 1234,
			NumTasks: 7, CPUUsageMean: 0.5, CPIMean: 1.6, CPIStddev: 0.2,
			UpdatedAt: ts,
		}},
	}
	for _, want := range msgs {
		frame := appendBinaryFrame(nil, want)
		fr := newFrameReader(bytes.NewReader(frame))
		got, err := fr.next()
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !sameWireMsg(got, want) {
			t.Errorf("%s: round-trip mismatch: got %+v want %+v", want.Type, got, want)
		}
	}
}

// floatEq treats NaN as equal to itself (bit-level wire equality).
func floatEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
