package pipeline

// Wire protocol v4: length-prefixed binary frames, the one framing of
// the agent ↔ aggregator stream, in both directions from the first
// byte.
//
// Frame layout (big-endian):
//
//	byte 0    magic 0xB2
//	byte 1    protocol version (4)
//	bytes 2-5 u32 payload length N (N ≤ MaxFrameBytes, else the frame
//	          is refused as oversized before any payload is read)
//	bytes 6+  payload: u8 message type, then the message body
//
// Messages:
//
//	agent → aggregator:  hello      u32 highest version spoken
//	agent → aggregator:  samples    u32 count, then the samples
//	agent → aggregator:  subscribe  u32 count, then job×platform keys
//	                                (none = every spec)
//	aggregator → agent:  hello      answers each hello received
//	aggregator → agent:  spec       the spec (no trace id: a receiver
//	                                derives it, trace.SpecID)
//
// A samples body is delta-coded. Each sample starts with a mask byte
// whose bits (sampleJob … sampleTraceID below) name the fields that
// follow; the task index, CPU usage and CPI follow always, in that
// order. A field whose bit is clear repeats the previous sample of the
// same frame, except the task's job, which is then the sample's own
// job. The first sample of a frame is compared with the zero sample, so
// every frame decodes alone. A mask bit this end does not know refuses
// the frame.
//
// A client says hello first and sends data straight after it; there is
// nothing to wait for. A peer that is not v4 — a first byte other than
// the magic (a v1 JSON peer's '{'), or a header or hello version other
// than 4 (a v3 peer, whose samples carry every field and a hex trace
// id, or a v2 peer, whose spec frames end in a trace id) — is refused
// with an error that wraps errBadFrame and names the version, and the
// connection is dropped. Unknown message types are skipped, so v4 can
// grow messages.
//
// Body primitives: u32/u64 big-endian; float64 as IEEE-754 bits (so
// NaN/Inf arrive and are judged by the SampleValidator, not by the
// codec); strings as u32 length + bytes, length-checked against the
// remaining payload; timestamps as a presence flag byte (0 = zero
// time) followed by unix seconds (i64) and nanoseconds (u32), decoded
// in UTC; trace ids as a presence flag byte (0 = no ID) followed by the
// ID's 64-bit hash.
//
// Encoding is append-style into caller-owned buffers and decoding is
// cursor-based over the payload slice into a per-connection decoder
// (below), so a steady-state sender allocates nothing and a receiver
// only for names it has not seen.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/model"
	"repro/internal/obs/trace"
)

const (
	binMagic     = 0xB2
	binVersion   = 4
	binHeaderLen = 6 // magic + version + u32 payload length
)

// Message types: the first payload byte. 0 is never sent; a decoded
// wireMsg of type 0 is a message this end does not know.
const (
	msgSamples   byte = 1
	msgSubscribe byte = 2
	msgSpec      byte = 3
	msgHello     byte = 4
)

// The mask bits of a sample: the fields that follow it. sampleTaskJob
// says the task's job is not the sample's job; the others say the field
// differs from the previous sample's.
const (
	sampleJob byte = 1 << iota
	sampleTaskJob
	samplePlatform
	sampleTimestamp
	sampleMachine
	sampleTraceID
	sampleKnown = sampleTraceID<<1 - 1
)

// wireMsg is one decoded (or to-be-encoded) message of any type.
type wireMsg struct {
	Type    byte
	Samples []model.Sample
	Jobs    []model.SpecKey
	Spec    model.Spec
}

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, uint64(t.Unix()))
	return appendU32(b, uint32(t.Nanosecond()))
}

func appendTraceID(b []byte, id trace.ID) []byte {
	h, ok := id.Hash()
	if !ok {
		return append(b, 0)
	}
	return appendU64(append(b, 1), h)
}

// zeroSample is what the first sample of a frame is compared with.
var zeroSample model.Sample

// appendSample appends s as the fields that differ from prev, the
// previous sample of its frame, behind the mask byte that names them.
func appendSample(b []byte, s, prev *model.Sample) []byte {
	at := len(b)
	b = append(b, 0)
	var mask byte
	if s.Job != prev.Job {
		mask |= sampleJob
		b = appendStr(b, string(s.Job))
	}
	if s.Task.Job != s.Job {
		mask |= sampleTaskJob
		b = appendStr(b, string(s.Task.Job))
	}
	if s.Platform != prev.Platform {
		mask |= samplePlatform
		b = appendStr(b, string(s.Platform))
	}
	if !s.Timestamp.Equal(prev.Timestamp) {
		mask |= sampleTimestamp
		b = appendTime(b, s.Timestamp)
	}
	if s.Machine != prev.Machine {
		mask |= sampleMachine
		b = appendStr(b, s.Machine)
	}
	if s.TraceID != prev.TraceID {
		mask |= sampleTraceID
		b = appendTraceID(b, s.TraceID)
	}
	b[at] = mask
	b = appendU64(b, uint64(s.Task.Index))
	b = appendF64(b, s.CPUUsage)
	return appendF64(b, s.CPI)
}

func appendSpec(b []byte, s *model.Spec) []byte {
	b = appendStr(b, string(s.Job))
	b = appendStr(b, string(s.Platform))
	b = appendU64(b, uint64(s.NumSamples))
	b = appendU64(b, uint64(s.NumTasks))
	b = appendF64(b, s.CPUUsageMean)
	b = appendF64(b, s.CPIMean)
	b = appendF64(b, s.CPIStddev)
	return appendTime(b, s.UpdatedAt)
}

// appendBinaryFrame appends one complete v4 frame encoding msg to buf
// and returns the extended buffer. A type with no body here encodes as
// its type byte alone, which receivers skip.
func appendBinaryFrame(buf []byte, msg wireMsg) []byte {
	start := len(buf)
	buf = append(buf, binMagic, binVersion, 0, 0, 0, 0, msg.Type)
	switch msg.Type {
	case msgSamples:
		buf = appendU32(buf, uint32(len(msg.Samples)))
		prev := &zeroSample
		for i := range msg.Samples {
			buf = appendSample(buf, &msg.Samples[i], prev)
			prev = &msg.Samples[i]
		}
	case msgSubscribe:
		buf = appendU32(buf, uint32(len(msg.Jobs)))
		for _, k := range msg.Jobs {
			buf = appendStr(buf, string(k.Job))
			buf = appendStr(buf, string(k.Platform))
		}
	case msgSpec:
		buf = appendSpec(buf, &msg.Spec)
	case msgHello:
		buf = appendU32(buf, binVersion)
	}
	return endFrame(buf, start)
}

// endFrame fills in the payload length of the frame starting at start.
func endFrame(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start+2:start+6], uint32(len(buf)-start-binHeaderLen))
	return buf
}

// binReader is a bounds-checked cursor over one binary payload. The
// first failed read poisons the reader; subsequent reads return zero
// values, and the caller checks err once at the end.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
	}
}

func (r *binReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) f64() float64 {
	return math.Float64frombits(r.u64())
}

// bytes returns the next length-prefixed string as a view of the
// payload, valid only until the payload buffer is reused.
func (r *binReader) bytes() []byte {
	n := int(r.u32())
	// The length check against the remaining payload is what keeps a
	// length/payload mismatch from turning into a huge allocation.
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *binReader) str() string { return string(r.bytes()) }

func (r *binReader) time() time.Time {
	switch r.u8() {
	case 0:
		return time.Time{}
	case 1:
		sec := int64(r.u64())
		nsec := int64(r.u32())
		if r.err != nil {
			return time.Time{}
		}
		return time.Unix(sec, nsec).UTC()
	default:
		r.fail()
		return time.Time{}
	}
}

func (r *binReader) traceID() trace.ID {
	switch r.u8() {
	case 0:
		return trace.ID{}
	case 1:
		return trace.HashID(r.u64())
	default:
		r.fail()
		return trace.ID{}
	}
}

// minBinSampleLen is the encoded size of the smallest sample: a mask
// byte, the u64 task index and two f64s. Used to bound the
// element-count preallocation below.
const minBinSampleLen = 1 + 8 + 2*8

// A decoder's name table holds at most jobMemoMax names of at most
// maxMemoNameLen bytes; like the Router's memo it is flushed when full,
// because names arrive from outside.
const (
	jobMemoMax     = 1024
	maxMemoNameLen = 128
)

// decoder decodes the binary payloads of one connection. Samples are
// decoded in place into one reused slice, valid until the next decode —
// which SampleSink's "must not retain" already requires of consumers.
// Strings are real copies, never views of the payload buffer, but a
// repeated one is copied once: a field the mask does not send is the
// previous sample's, the machine is compared with the last one sent on
// the connection, and job and platform names go through the bounded
// table. A name the table holds is the same string every time it
// arrives, which is what the connection's core.KeyMemo relies on.
type decoder struct {
	samples  []model.Sample
	names    nameTable
	machine  string
	platform string
}

// same returns last when b spells it, and a copy of b otherwise.
func same(last string, b []byte) string {
	if string(b) == last {
		return last
	}
	return string(b)
}

// nameTable interns the names one connection sends, so a name arrives
// as the same string every time. It is an open-addressed table placed
// by a multiply of the name's first and last eight bytes, not a string
// hash: a lookup reads one entry and the name's bytes.
type nameTable struct {
	names []model.JobName // len 0 or a power of two; "" = empty
	shift uint            // 64 − log2(len(names))
	n     int
}

// intern returns the table's copy of the name b spells, adding one if
// it has none and b is short enough.
func (t *nameTable) intern(b []byte) model.JobName {
	if len(b) == 0 {
		return ""
	}
	if len(t.names) > 0 {
		if e := t.find(b); *e != "" {
			return *e
		}
	}
	j := model.JobName(b)
	if len(b) <= maxMemoNameLen {
		if t.n >= jobMemoMax {
			clear(t.names)
			t.n = 0
		}
		if 2*(t.n+1) > len(t.names) {
			t.grow()
		}
		*t.find(b) = j
		t.n++
	}
	return j
}

// find returns the entry holding the name b spells, or the empty entry
// where it would go. The table is never full.
func (t *nameTable) find(b []byte) *model.JobName {
	var x uint64
	if n := len(b); n >= 8 {
		x = binary.LittleEndian.Uint64(b)*0x9e3779b97f4a7c15 ^ binary.LittleEndian.Uint64(b[n-8:])
	} else {
		for _, c := range b {
			x = x<<8 | uint64(c)
		}
	}
	mask := uint64(len(t.names) - 1)
	for i := (x ^ uint64(len(b))) * 0x9e3779b97f4a7c15 >> t.shift; ; i = (i + 1) & mask {
		if e := &t.names[i]; *e == "" || string(*e) == string(b) {
			return e
		}
	}
}

// grow doubles the table (to 16 entries from empty) and re-places the
// names.
func (t *nameTable) grow() {
	old := t.names
	n := max(16, 2*len(old))
	t.names = make([]model.JobName, n)
	t.shift = uint(64 - bits.Len(uint(n-1)))
	for _, j := range old {
		if j != "" {
			*t.find([]byte(j)) = j
		}
	}
}

// sample decodes the next sample into s, overwriting every field; prev
// is the previous sample of the frame (or the zero sample).
func (d *decoder) sample(r *binReader, s, prev *model.Sample) {
	mask := r.u8()
	if mask&^sampleKnown != 0 {
		r.err = fmt.Errorf("sample mask %#02x has unknown bits", mask)
		return
	}
	*s = *prev
	if mask&sampleJob != 0 {
		s.Job = d.names.intern(r.bytes())
	}
	s.Task.Job = s.Job
	if mask&sampleTaskJob != 0 {
		s.Task.Job = d.names.intern(r.bytes())
	}
	if mask&samplePlatform != 0 {
		if b := r.bytes(); string(b) != d.platform {
			d.platform = string(d.names.intern(b))
		}
		s.Platform = model.Platform(d.platform)
	}
	if mask&sampleTimestamp != 0 {
		s.Timestamp = r.time()
	}
	if mask&sampleMachine != 0 {
		d.machine = same(d.machine, r.bytes())
		s.Machine = d.machine
	}
	if mask&sampleTraceID != 0 {
		s.TraceID = r.traceID()
	}
	s.Task.Index = int(r.u64())
	s.CPUUsage = r.f64()
	s.CPI = r.f64()
}

// spec decodes a spec into s. A connection is pushed the same keys
// refresh after refresh, so both of its names go through the job-name
// table: a spec whose key has been seen costs no string copy.
func (d *decoder) spec(r *binReader, s *model.Spec) {
	s.Job = d.names.intern(r.bytes())
	s.Platform = model.Platform(d.names.intern(r.bytes()))
	s.NumSamples = int64(r.u64())
	s.NumTasks = int(r.u64())
	s.CPUUsageMean = r.f64()
	s.CPIMean = r.f64()
	s.CPIStddev = r.f64()
	s.UpdatedAt = r.time()
}

// decode parses one v4 payload (the bytes after the 6-byte frame
// header). Malformed input, and a hello for any version but ours,
// returns an error wrapping errBadFrame and never panics —
// FuzzWireDecodeBinary enforces this. Unknown message types decode to
// a zero wireMsg, which the read loops ignore.
func (d *decoder) decode(p []byte) (wireMsg, error) {
	r := binReader{b: p}
	msg := wireMsg{Type: r.u8()}
	switch msg.Type {
	case msgSamples:
		// An adversarial count can exceed what the payload could hold;
		// stop at the samples the bytes actually present could encode.
		count := int(min(int64(r.u32()), int64(len(p)/minBinSampleLen+1)))
		if cap(d.samples) < count {
			d.samples = make([]model.Sample, count)
		}
		msg.Samples = d.samples[:count]
		prev := &zeroSample
		for i := 0; i < count && r.err == nil; i++ {
			d.sample(&r, &msg.Samples[i], prev)
			prev = &msg.Samples[i]
		}
	case msgSubscribe:
		count := int(r.u32())
		msg.Jobs = make([]model.SpecKey, 0, min(count, len(p)/8+1)) // a key is ≥ two empty strings
		for i := 0; i < count && r.err == nil; i++ {
			msg.Jobs = append(msg.Jobs, model.SpecKey{
				Job:      model.JobName(r.str()),
				Platform: model.Platform(r.str()),
			})
		}
	case msgSpec:
		d.spec(&r, &msg.Spec)
	case msgHello:
		if v := r.u32(); r.err == nil && v != binVersion {
			return wireMsg{}, fmt.Errorf("%w: peer says hello for wire v%d, this end speaks only v%d", errBadFrame, v, binVersion)
		}
	default:
		return wireMsg{}, nil
	}
	if r.err != nil {
		return wireMsg{}, fmt.Errorf("%w: binary payload: %v", errBadFrame, r.err)
	}
	return msg, nil
}
