package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// The codec's cost on two messages — a 16-sample batch (one machine's
// sampling window) and one spec push — codec only (no socket, no
// bufio).
//
//	go test -run '^$' -bench 'BenchmarkWire' -benchmem ./internal/pipeline

var wireBenchMsgs = []struct {
	name    string
	msg     wireMsg
	samples int
}{
	{"samples16", wireMsg{Type: msgSamples, Samples: wireBenchSamples(16)}, 16},
	{"spec", wireMsg{Type: msgSpec, TraceID: "5f1d6c0a9b3e4d27", Spec: model.Spec{
		Job: "websearch-leaf", Platform: model.PlatformA, NumSamples: 48211, NumTasks: 640,
		CPUUsageMean: 1.37, CPIMean: 1.8234, CPIStddev: 0.2117, UpdatedAt: day0.Add(36 * time.Hour),
	}}, 0},
}

func wireBenchSamples(n int) []model.Sample {
	out := make([]model.Sample, n)
	for i := range out {
		out[i] = model.Sample{
			Job:       "websearch-leaf",
			Task:      model.TaskID{Job: "websearch-leaf", Index: 100 + i},
			Platform:  model.PlatformA,
			Timestamp: day0.Add(90 * time.Minute),
			CPUUsage:  0.8 + float64(i)*0.013,
			CPI:       1.7 + float64(i)*0.0171,
			Machine:   "machine-0421",
			TraceID:   "9c41e07ab2d85f63",
		}
	}
	return out
}

// wireBenchSink keeps the compiler from eliding the measured calls.
var wireBenchSink int

// reportFrame adds the frame size to a finished benchmark's results
// (after the loop: ResetTimer discards reported metrics).
func reportFrame(b *testing.B, frame []byte, samples int) {
	b.SetBytes(int64(len(frame)))
	b.ReportMetric(float64(len(frame)), "frame_B")
	if samples > 0 {
		b.ReportMetric(float64(len(frame))/float64(samples), "B/sample")
	}
	b.ReportAllocs()
}

func BenchmarkWireEncode(b *testing.B) {
	for _, m := range wireBenchMsgs {
		b.Run(m.name, func(b *testing.B) {
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendBinaryFrame(buf[:0], m.msg)
				wireBenchSink += len(buf)
			}
			reportFrame(b, buf, m.samples)
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, m := range wireBenchMsgs {
		b.Run(m.name, func(b *testing.B) {
			frame := appendBinaryFrame(nil, m.msg)
			dec := new(decoder) // as frameReader: one per connection
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := dec.decode(frame[binHeaderLen:])
				if err != nil {
					b.Fatal(err)
				}
				wireBenchSink += len(msg.Samples)
			}
			reportFrame(b, frame, m.samples)
		})
	}
}

// ingestFrames encodes n 16-sample batches that differ in trace id, as
// consecutive frames on a connection do, and in machine when machines
// is set, as on a connection that multiplexes machines.
func ingestFrames(n int, machines bool) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		samples := wireBenchSamples(16)
		for j := range samples {
			samples[j].TraceID = fmt.Sprintf("9c41e07ab2d85f6%d", i)
			if machines {
				samples[j].Machine = fmt.Sprintf("machine-%04d", i)
			}
		}
		frames[i] = appendBinaryFrame(nil, wireMsg{Type: msgSamples, Samples: samples})
	}
	return frames
}

// BenchmarkIngestBatch is the aggregator's cost of one 16-sample batch
// once its frame is in memory: decode, owner/validator filter, fold.
// Every fourth frame is a different machine's, with its own trace id,
// so the per-batch string copies are paid as on a real connection.
func BenchmarkIngestBatch(b *testing.B) {
	frames := ingestFrames(4, true)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetValidator(core.NewSampleValidator("aggregator", 16))
	dec := new(decoder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := dec.decode(frames[i%len(frames)][binHeaderLen:])
		if err != nil {
			b.Fatal(err)
		}
		_ = bus.Publish(msg.Samples) // the bus counts rejects; it never errors
	}
	b.StopTimer()
	if got, _ := bus.Stats(); got != int64(16*b.N) {
		b.Fatalf("folded %d samples, want %d", got, 16*b.N)
	}
	reportFrame(b, frames[0], 16)
}

// versionedTable is a SpecTable whose InterestVersion the benchmark can
// move, as an agent's does when its job set changes.
type versionedTable struct {
	*SpecTable
	version atomic.Uint64
}

func (t *versionedTable) InterestVersion() uint64 { return t.version.Load() }

// BenchmarkBusPush is one spec refresh at the daemon_specpush shape:
// 2,000 specs pushed to 5,000 watchers that each want one job's, plus
// two loopback TCP subscribers that want them all. "steady" pushes with
// nothing changed; "churn" moves the version of 1 % of the watchers
// before every push, so each is asked about every key again. The clock
// runs for the Push call only; the subscribers read the push to its end
// before the next one starts.
//
//	go test -run '^$' -bench BenchmarkBusPush -benchtime 20x ./internal/pipeline
func BenchmarkBusPush(b *testing.B) {
	const nSpecs, nWatchers, nSubscribers = 2000, 5000, 2
	for _, churn := range []int{0, nWatchers / 100} {
		name := "steady"
		if churn > 0 {
			name = "churn"
		}
		b.Run(name, func(b *testing.B) {
			bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
			m := NewMetrics(obs.NewRegistry())
			bus.SetMetrics(m)
			srv := NewServer(bus)
			addr, err := srv.Serve("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			keys := make([]model.SpecKey, nSpecs)
			for i := range keys {
				keys[i] = model.SpecKey{Job: model.JobName(fmt.Sprintf("job-%04d", i/2)), Platform: model.PlatformA}
				if i%2 == 1 {
					keys[i].Platform = model.PlatformB
				}
			}
			specs := make([]model.Spec, nSpecs)
			for i, k := range keys {
				specs[i] = model.Spec{Job: k.Job, Platform: k.Platform, NumSamples: 48211, NumTasks: 640,
					CPUUsageMean: 1.37, CPIMean: 1.82, CPIStddev: 0.21, UpdatedAt: day0}
			}
			var probes atomic.Int64
			tables := make([]*versionedTable, nWatchers)
			for i := range tables {
				job := keys[2*(i%(nSpecs/2))].Job
				tables[i] = &versionedTable{SpecTable: NewSpecTable(func(k model.SpecKey) bool {
					probes.Add(1)
					return k.Job == job
				})}
				bus.Watch(tables[i])
			}
			var seen atomic.Int64
			for i := 0; i < nSubscribers; i++ {
				client, err := Dial(context.Background(), addr, func(model.Spec) { seen.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				defer client.Close()
				if err := client.Subscribe(); err != nil {
					b.Fatal(err)
				}
			}
			// Each subscriber's hello and subscribe frame have been read.
			for m.MessagesIn.Value() < 2*nSubscribers {
				time.Sleep(time.Millisecond)
			}
			pushed := int64(0)
			push := func() {
				bus.Push(specs)
				pushed += nSpecs * nSubscribers
				b.StopTimer()
				for seen.Load() < pushed {
					time.Sleep(50 * time.Microsecond)
				}
				b.StartTimer()
			}
			push() // builds the index and every buffer
			probes.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < churn; j++ {
					tables[(i*churn+j)%nWatchers].version.Add(1)
				}
				push()
			}
			b.StopTimer()
			b.ReportMetric(float64(probes.Load())/float64(b.N), "probes/op")
		})
	}
}
