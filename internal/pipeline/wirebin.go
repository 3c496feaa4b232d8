package pipeline

// Wire protocol v2: length-prefixed binary frames, the one framing of
// the agent ↔ aggregator stream, in both directions from the first
// byte.
//
// Frame layout (big-endian):
//
//	byte 0    magic 0xB2
//	byte 1    protocol version (2)
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
//	aggregator → agent:  spec       the spec, then its trace id
//
// A client says hello first and sends data straight after it; there is
// nothing to wait for. A peer that is not v2 — a first byte other than
// the magic (a v1 JSON peer's '{'), or a header or hello version other
// than 2 — is refused with an error that wraps errBadFrame and names
// the version, and the connection is dropped. Unknown message types
// are skipped, so v2 can grow messages.
//
// Body primitives: u32/u64 big-endian; float64 as IEEE-754 bits (so
// NaN/Inf arrive and are judged by the SampleValidator, not by the
// codec); strings as u32 length + bytes, length-checked against the
// remaining payload; timestamps as a presence flag byte (0 = zero
// time) followed by unix seconds (i64) and nanoseconds (u32), decoded
// in UTC.
//
// Encoding is append-style into caller-owned buffers and decoding is
// cursor-based over the payload slice into a per-connection decoder
// (below), so a steady-state sender allocates nothing and a receiver
// only for strings it has not just seen: the per-batch trace id.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/model"
)

const (
	binMagic     = 0xB2
	binVersion   = 2
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

// wireMsg is one decoded (or to-be-encoded) message of any type.
// TraceID carries the causal-tracing context of a spec message.
type wireMsg struct {
	Type    byte
	Samples []model.Sample
	Jobs    []model.SpecKey
	Spec    model.Spec
	TraceID string
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

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

func appendSample(b []byte, s *model.Sample) []byte {
	b = appendStr(b, string(s.Job))
	b = appendStr(b, string(s.Task.Job))
	b = appendU64(b, uint64(s.Task.Index))
	b = appendStr(b, string(s.Platform))
	b = appendTime(b, s.Timestamp)
	b = appendF64(b, s.CPUUsage)
	b = appendF64(b, s.CPI)
	b = appendStr(b, s.Machine)
	return appendStr(b, s.TraceID)
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

// appendBinaryFrame appends one complete v2 frame encoding msg to buf
// and returns the extended buffer. A type with no body here encodes as
// its type byte alone, which receivers skip.
func appendBinaryFrame(buf []byte, msg wireMsg) []byte {
	start := len(buf)
	buf = append(buf, binMagic, binVersion, 0, 0, 0, 0, msg.Type)
	switch msg.Type {
	case msgSamples:
		buf = appendU32(buf, uint32(len(msg.Samples)))
		for i := range msg.Samples {
			buf = appendSample(buf, &msg.Samples[i])
		}
	case msgSubscribe:
		buf = appendU32(buf, uint32(len(msg.Jobs)))
		for _, k := range msg.Jobs {
			buf = appendStr(buf, string(k.Job))
			buf = appendStr(buf, string(k.Platform))
		}
	case msgSpec:
		buf = appendSpec(buf, &msg.Spec)
		buf = appendStr(buf, msg.TraceID)
	case msgHello:
		buf = appendU32(buf, binVersion)
	}
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

// minBinSampleLen is the encoded size of an all-empty sample: five
// empty strings (4 bytes each), one u64, two f64s, one zero-time flag
// byte. Used to bound the element-count preallocation below.
const minBinSampleLen = 5*4 + 8 + 2*8 + 1

// A decoder's job-name table holds at most jobMemoMax names of at most
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
// repeated one is copied once: machine, platform and trace id are
// compared with the previous sample's, Task.Job with the Job just
// decoded, and job names — and a spec's platform — go through the
// bounded table.
type decoder struct {
	samples  []model.Sample
	jobs     map[string]model.JobName
	machine  string
	platform string
	traceID  string
}

// same returns last when b spells it, and a copy of b otherwise.
func same(last string, b []byte) string {
	if string(b) == last {
		return last
	}
	return string(b)
}

func (d *decoder) job(b []byte) model.JobName {
	if j, ok := d.jobs[string(b)]; ok {
		return j
	}
	j := model.JobName(b)
	if len(b) <= maxMemoNameLen {
		if d.jobs == nil || len(d.jobs) >= jobMemoMax {
			d.jobs = make(map[string]model.JobName)
		}
		d.jobs[string(j)] = j
	}
	return j
}

// sample decodes the next sample into s, overwriting every field.
func (d *decoder) sample(r *binReader, s *model.Sample) {
	s.Job = d.job(r.bytes())
	if tj := r.bytes(); string(tj) == string(s.Job) {
		s.Task.Job = s.Job
	} else {
		s.Task.Job = d.job(tj)
	}
	s.Task.Index = int(r.u64())
	d.platform = same(d.platform, r.bytes())
	s.Platform = model.Platform(d.platform)
	s.Timestamp = r.time()
	s.CPUUsage = r.f64()
	s.CPI = r.f64()
	d.machine = same(d.machine, r.bytes())
	s.Machine = d.machine
	d.traceID = same(d.traceID, r.bytes())
	s.TraceID = d.traceID
}

// spec decodes a spec into s. A connection is pushed the same keys
// refresh after refresh, so both of its names go through the job-name
// table: a spec whose key has been seen costs no string copy.
func (d *decoder) spec(r *binReader, s *model.Spec) {
	s.Job = d.job(r.bytes())
	s.Platform = model.Platform(d.job(r.bytes()))
	s.NumSamples = int64(r.u64())
	s.NumTasks = int(r.u64())
	s.CPUUsageMean = r.f64()
	s.CPIMean = r.f64()
	s.CPIStddev = r.f64()
	s.UpdatedAt = r.time()
}

// decode parses one v2 payload (the bytes after the 6-byte frame
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
		for i := 0; i < count && r.err == nil; i++ {
			d.sample(&r, &msg.Samples[i])
		}
	case msgSubscribe:
		count := int(r.u32())
		capN := count
		if max := len(p)/8 + 1; capN > max { // a key is ≥ two empty strings
			capN = max
		}
		msg.Jobs = make([]model.SpecKey, 0, capN)
		for i := 0; i < count && r.err == nil; i++ {
			msg.Jobs = append(msg.Jobs, model.SpecKey{
				Job:      model.JobName(r.str()),
				Platform: model.Platform(r.str()),
			})
		}
	case msgSpec:
		d.spec(&r, &msg.Spec)
		msg.TraceID = r.str()
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
