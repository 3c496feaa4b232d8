package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestOversizeFrameOverTCP is the regression test for the unreachable
// oversize check: decodeFrame's len(line) > MaxFrameBytes test could
// never fire over TCP because the line scanner errored out first and
// the read loop dropped the connection silently. Both framings must
// now surface the drop through cpi2_wire_errors_total{reason=
// "oversize"} and a wire_error event.
func TestOversizeFrameOverTCP(t *testing.T) {
	oversizeJSON := func() []byte {
		var buf bytes.Buffer
		buf.WriteString(`{"type":"samples","pad":"`)
		buf.Write(bytes.Repeat([]byte("a"), MaxFrameBytes+1))
		buf.WriteString("\"}\n")
		return buf.Bytes()
	}()
	oversizeBinary := func() []byte {
		n := uint32(MaxFrameBytes + 1)
		return []byte{binMagic, binVersion,
			byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	}()

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"json", oversizeJSON},
		{"binary", oversizeBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			m := NewMetrics(reg)
			bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
			bus.SetMetrics(m)
			events := obs.NewEventLog(16, nil)
			srv := NewServer(bus)
			srv.SetEvents(events)
			addr, err := srv.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Write may error partway once the server drops us; all that
			// matters is that the oversize became observable.
			_, _ = conn.Write(tc.frame)

			waitFor(t, "oversize accounting", func() bool {
				return m.WireErrors.With("oversize").Value() == 1
			})
			evs := events.Recent(1, "wire_error")
			if len(evs) != 1 {
				t.Fatalf("wire_error events = %d, want 1", len(evs))
			}
			data, ok := evs[0].Data.(map[string]string)
			if !ok {
				t.Fatalf("wire_error data type %T", evs[0].Data)
			}
			if data["reason"] != "oversize" || data["side"] != "server" {
				t.Errorf("wire_error data = %v", data)
			}
			// The connection must actually be dropped, not limp along.
			waitFor(t, "connection drop", func() bool {
				return m.ConnectedAgents.Value() == 0
			})
		})
	}
}

// TestClientCountsWireErrors covers satellite bug #1 on the agent side:
// a server that feeds the client garbage must show up in the client's
// cpi2_wire_errors_total and event log instead of a silent read-loop
// exit.
func TestClientCountsWireErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The fake server consumes the client's hello before it answers (a
	// close with unread input turns into an RST, which the client would
	// classify as "read") and holds the garbage back until the test has
	// installed its metrics and event log (the read loop starts inside
	// Dial, so an earlier frame could be counted against nothing).
	instrumented := make(chan struct{}, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		<-instrumented
		_, _ = conn.Write([]byte("this is not a wire frame\n"))
	}()

	client, err := Dial(context.Background(), ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := obs.NewRegistry()
	cm := NewMetrics(reg)
	client.SetMetrics(cm)
	events := obs.NewEventLog(16, nil)
	client.SetEvents(events)
	instrumented <- struct{}{}

	<-client.Done()
	if got := cm.WireErrors.With("decode").Value(); got != 1 {
		t.Errorf("client decode errors = %v, want 1", got)
	}
	evs := events.Recent(1, "wire_error")
	if len(evs) != 1 {
		t.Fatalf("wire_error events = %d, want 1", len(evs))
	}
	if data, _ := evs[0].Data.(map[string]string); data["side"] != "client" || data["reason"] != "decode" {
		t.Errorf("wire_error data = %v", evs[0].Data)
	}
}

// TestBinaryWireNegotiation pins the upgrade path: the client's hello
// gets acked by a v2 server, sends switch to the binary framing, and
// samples/specs still flow end to end.
func TestBinaryWireNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	srv := NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got collectSpecs
	client, err := Dial(context.Background(), addr, got.add)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	waitFor(t, "binary upgrade", client.BinaryWire)

	// Everything after the upgrade crosses the wire in binary frames.
	if err := client.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(makeSamples("j", 8, 150, 1.2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "samples over binary wire", func() bool {
		r, _ := bus.Stats()
		return r == 1200
	})
	bus.Recompute(day0)
	waitFor(t, "spec push over binary wire", func() bool { return got.count() == 1 })
	if got := m.WireErrors.With("decode").Value() + m.WireErrors.With("oversize").Value() +
		m.WireErrors.With("read").Value(); got != 0 {
		t.Errorf("wire errors during clean binary session = %v", got)
	}
}
