package agent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// recordingConn is a net.Conn that keeps a copy of every byte read
// from it and written to it.
type recordingConn struct {
	net.Conn
	mu          sync.Mutex
	read, wrote []byte
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read = append(c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote = append(c.wrote, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// recordingProxy relays every connection it accepts to upstream
// through a recordingConn, so a test can read back what crossed the
// wire: read = agent → aggregator, wrote = aggregator → agent.
type recordingProxy struct {
	addr  string
	mu    sync.Mutex
	conns []*recordingConn
}

func newRecordingProxy(t *testing.T, upstream string) *recordingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &recordingProxy{addr: ln.Addr().String()}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			rc := &recordingConn{Conn: down}
			p.mu.Lock()
			p.conns = append(p.conns, rc)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(up, rc); up.Close() }()
			go func() { _, _ = io.Copy(rc, up); rc.Close() }()
		}
	}()
	return p
}

// countV4Frames walks stream as wire v4 frames — magic 0xB2, version
// 4, u32 payload length — and returns how many whole ones it holds.
// The last may be cut short: it was in flight when the record was read.
func countV4Frames(t *testing.T, what string, stream []byte) int {
	t.Helper()
	frames := 0
	for len(stream) > 0 {
		if start := stream[:min(2, len(stream))]; !bytes.HasPrefix([]byte{0xB2, 0x04}, start) {
			t.Fatalf("%s: frame %d starts % x, want b2 04", what, frames, start)
		}
		if len(stream) < 6 {
			break
		}
		size := 6 + int(binary.BigEndian.Uint32(stream[2:6]))
		if size > len(stream) {
			break
		}
		stream = stream[size:]
		frames++
	}
	return frames
}

// dialAggregator returns a Redialer to addr once its connection is up.
func dialAggregator(t *testing.T, addr string, onSpec func(model.Spec)) *pipeline.Redialer {
	t.Helper()
	rd := pipeline.NewRedialer(addr, onSpec)
	t.Cleanup(func() { rd.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for !rd.Connected() {
		if time.Now().After(deadline) {
			t.Fatalf("no connection to %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rd
}

// TestFleetOverTCP is the distributed integration test: several
// machines, each with its own agent, publish CPI samples to one
// aggregation server over real TCP sockets; the server builds specs
// from fleet-wide data and pushes them back; a machine whose victim
// then suffers interference detects and caps using the *pushed* spec,
// never a locally installed one. This is Figure 6 end to end. Every
// connection runs through a recording proxy: all that crosses it, in
// both directions and from the first byte, must be wire v4 frames.
func TestFleetOverTCP(t *testing.T) {
	params := core.Params{MinSamplesPerTask: 5}
	bus := pipeline.NewBus(core.NewSpecBuilder(params))
	metrics := pipeline.NewMetrics(obs.NewRegistry())
	bus.SetMetrics(metrics)
	validator := core.NewSampleValidator("aggregator", 16)
	bus.SetValidator(validator)
	srv := pipeline.NewServer(bus)
	srvAddr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newRecordingProxy(t, srvAddr)
	addr := proxy.addr

	// One more connection, wired as cmd/cpi2agent wires its own
	// (Spooler → Redialer), whose first batch carries a NaN CPI. The
	// spooler replays it the moment the dial returns, straight behind
	// the hello; the codec must carry it to the validator, which
	// quarantines it, and the connection must live on.
	pushed := make(chan struct{}, 1)
	rd := pipeline.NewRedialer(addr, func(model.Spec) {
		select {
		case pushed <- struct{}{}:
		default:
		}
	})
	defer rd.Close()
	clientMetrics := pipeline.NewMetrics(obs.NewRegistry())
	rd.SetMetrics(clientMetrics)
	spool := pipeline.NewSpooler(rd, pipeline.SpoolConfig{})
	defer spool.Close()
	spool.Start()
	rd.SetOnConnect(spool.Kick)
	if err := rd.Subscribe(); err != nil {
		t.Fatal(err)
	}
	_ = spool.Publish([]model.Sample{{
		Job: "svc", Task: model.TaskID{Job: "svc", Index: 99}, Platform: model.PlatformA,
		Timestamp: time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC),
		CPUUsage:  1, CPI: math.NaN(), Machine: "noisy",
	}})
	deadline := time.Now().Add(10 * time.Second)
	for validator.Quarantine.Total() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("NaN sample never reached the aggregator's quarantine (spool %+v)", spool.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if q := validator.Quarantine.Recent(1); q[0].Reason != "non_finite_cpi" || q[0].Sample.Machine != "noisy" {
		t.Errorf("quarantined %+v", q[0])
	}

	const nMachines = 4
	svcJob := model.Job{Name: "svc", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	svcProfile := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}

	type node struct {
		m    *machine.Machine
		a    *Agent
		incs []core.Incident // every incident its ticks raised
	}
	nodes := make([]*node, nMachines)
	for i := range nodes {
		m := machine.New(fmt.Sprintf("m%02d", i), interference.DefaultMachine(model.PlatformA), 16, nil)
		n := &node{m: m}
		client := dialAggregator(t, addr, func(s model.Spec) {
			n.a.DeliverSpec(s) // push path: spec reaches the detector over TCP
		})
		if err := client.Subscribe(); err != nil {
			t.Fatal(err)
		}
		n.a = New(m, params, client)
		// Two svc tasks per machine → 8 tasks fleet-wide (≥ MinTasks).
		for j := 0; j < 2; j++ {
			id := model.TaskID{Job: "svc", Index: i*2 + j}
			if err := m.AddTask(id, svcProfile, &workload.Steady{CPU: 1.0, Threads: 8}); err != nil {
				t.Fatal(err)
			}
			n.a.RegisterTask(id, svcJob)
		}
		nodes[i] = n
	}

	// Phase 1: healthy fleet publishes samples for 8 simulated minutes.
	now := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	step := func(seconds int) {
		for s := 0; s < seconds; s++ {
			for _, n := range nodes {
				n.m.Tick(now, time.Second)
				n.incs = append(n.incs, n.a.Tick(now)...)
			}
			now = now.Add(time.Second)
		}
	}
	step(8 * 60)

	// Wait for the samples to cross the sockets.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if r, _ := bus.Stats(); r >= nMachines*2*7 {
			break
		}
		if time.Now().After(deadline) {
			r, d := bus.Stats()
			t.Fatalf("samples missing: received %d dropped %d", r, d)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Aggregator recomputes and pushes specs over TCP.
	specs := bus.Recompute(now)
	if len(specs) != 1 || specs[0].Job != "svc" {
		t.Fatalf("specs = %+v", specs)
	}
	for {
		n := nodes[0]
		if _, ok := n.a.Manager().Spec(model.SpecKey{Job: "svc", Platform: model.PlatformA}); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("spec push never reached agent 0")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// All agents must have it before the interference phase starts.
	for i, n := range nodes {
		for {
			if _, ok := n.a.Manager().Spec(model.SpecKey{Job: "svc", Platform: model.PlatformA}); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("spec push never reached agent %d", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The connection that carried the NaN is still the first one dialed,
	// and specs come down it.
	select {
	case <-pushed:
	case <-time.After(time.Until(deadline)):
		t.Fatal("spec push never reached the connection that sent the NaN")
	}
	if !rd.Connected() || clientMetrics.Reconnects.Value() != 0 {
		t.Errorf("NaN sample cost the connection: connected %v, reconnects %v", rd.Connected(), clientMetrics.Reconnects.Value())
	}

	// Phase 2: an antagonist lands on machine 2 only.
	antagJob := model.Job{Name: "hog", Class: model.ClassBatch, Priority: model.PriorityBatch}
	antagID := model.TaskID{Job: "hog", Index: 0}
	err = nodes[2].m.AddTask(antagID, &interference.Profile{
		DefaultCPI: 1.5, CacheFootprint: 8, MemBandwidth: 6,
		Sensitivity: 0.1, BaseL3MPKI: 12, NoiseSigma: 0.05,
	}, &workload.Steady{CPU: 6, Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	nodes[2].a.RegisterTask(antagID, antagJob)

	var capInc *core.Incident
	for s := 0; s < 12*60 && capInc == nil; s++ {
		for _, n := range nodes {
			n.m.Tick(now, time.Second)
			incs := n.a.Tick(now)
			n.incs = append(n.incs, incs...)
			for _, inc := range incs {
				if inc.Decision.Action == core.ActionCap && capInc == nil {
					ic := inc
					capInc = &ic
				}
			}
		}
		now = now.Add(time.Second)
	}
	if capInc == nil {
		t.Fatal("no cap despite interference (pushed spec unused?)")
	}
	if capInc.Machine != "m02" {
		t.Errorf("cap on %s, want m02", capInc.Machine)
	}
	if capInc.Decision.Target != antagID {
		t.Errorf("decision = %+v", capInc.Decision)
	}
	if !nodes[2].m.IsCapped(antagID) {
		t.Error("antagonist not capped")
	}
	// Healthy machines may raise the occasional no-action incident (a
	// task in the spec's statistical tail crossing 2σ on noise), but
	// must never cap anyone: there is no correlated suspect.
	for i, n := range nodes {
		if i == 2 {
			continue
		}
		for _, other := range n.incs {
			if other.Decision.Action == core.ActionCap {
				t.Errorf("machine %d capped %v with no antagonist present", i, other.Decision.Target)
			}
		}
	}

	// What crossed the wire: a hello each way at least, and nothing
	// that is not a v4 frame, on every connection.
	for _, reason := range []string{"decode", "oversize", "read"} {
		if got := metrics.WireErrors.With(reason).Value(); got != 0 {
			t.Errorf("aggregator wire errors (%s) = %v", reason, got)
		}
	}
	proxy.mu.Lock()
	defer proxy.mu.Unlock()
	if len(proxy.conns) != nMachines+1 {
		t.Errorf("proxy relayed %d connections, want %d", len(proxy.conns), nMachines+1)
	}
	for i, rc := range proxy.conns {
		rc.mu.Lock()
		up := countV4Frames(t, fmt.Sprintf("conn %d, agent → aggregator", i), rc.read)
		down := countV4Frames(t, fmt.Sprintf("conn %d, aggregator → agent", i), rc.wrote)
		rc.mu.Unlock()
		if up < 2 || down < 2 {
			t.Errorf("conn %d: %d frames up, %d down; want a hello and data each way", i, up, down)
		}
	}
}
