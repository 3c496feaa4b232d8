package pipeline

import (
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// wireTestServer is a Server over an instrumented bus with an event
// log, listening on loopback.
func wireTestServer(t *testing.T) (addr string, bus *Bus, m *Metrics, events *obs.EventLog) {
	t.Helper()
	m = NewMetrics(obs.NewRegistry())
	bus = NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	events = obs.NewEventLog(16, nil)
	srv := NewServer(bus)
	srv.SetEvents(events)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, bus, m, events
}

// oneWireError returns the data of the single wire_error event in log,
// after checking which side raised it and why.
func oneWireError(t *testing.T, log *obs.EventLog, side, reason string) map[string]string {
	t.Helper()
	evs := log.Recent(0, "wire_error")
	if len(evs) != 1 {
		t.Fatalf("wire_error events = %d, want 1", len(evs))
	}
	data, ok := evs[0].Data.(map[string]string)
	if !ok {
		t.Fatalf("wire_error data type %T", evs[0].Data)
	}
	if data["side"] != side || data["reason"] != reason {
		t.Errorf("wire_error data = %v, want side %s, reason %s", data, side, reason)
	}
	return data
}

// TestOversizeFrameOverTCP drives the frame-size limit through a real
// socket: a frame at the limit is folded and the connection lives on;
// one declared a byte larger ("binary": the header alone is enough),
// or cut off mid-payload, drops the connection and shows in
// cpi2_wire_errors_total{reason} and a wire_error event — never a
// silent read-loop exit. A v1 peer's oversized JSON line ("json") is
// not read up to the limit to be called oversize: it is refused at its
// first byte like any other v1 line.
func TestOversizeFrameOverTCP(t *testing.T) {
	atLimit := limitFrame(MaxFrameBytes)
	for _, tc := range []struct {
		name   string
		stream []byte
		reason string // "" = the frame is accepted
	}{
		{"at_limit", atLimit, ""},
		{"binary", limitFrame(MaxFrameBytes + 1)[:binHeaderLen], "oversize"},
		{"json", []byte(`{"type":"samples","pad":"` + strings.Repeat("a", MaxFrameBytes) + `"}` + "\n"), "decode"},
		{"truncated", atLimit[:len(atLimit)/2], "read"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, m, events := wireTestServer(t)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Write may fail partway once the server has dropped us; all
			// that matters is what the server accounted.
			_, _ = conn.Write(tc.stream)
			if tc.reason == "" {
				waitFor(t, "frame at the limit", func() bool { return m.MessagesIn.Value() == 1 })
				if m.ConnectedAgents.Value() != 1 || len(events.Recent(0, "wire_error")) != 0 {
					t.Errorf("frame at the limit dropped the connection: %v", events.Recent(0, "wire_error"))
				}
				return
			}
			if tc.name == "truncated" {
				conn.Close() // the peer dies between header and payload end
			}
			// The connection must actually be dropped, not limp along (and
			// once it is, the read loop has finished its accounting).
			waitFor(t, tc.reason+" accounting and connection drop", func() bool {
				return m.WireErrors.With(tc.reason).Value() == 1 && m.ConnectedAgents.Value() == 0
			})
			oneWireError(t, events, "server", tc.reason)
		})
	}
}

// dialFake connects a client to a fake server that answers its hello
// with reply and hangs up, and returns the client's metrics and event
// log once the connection has dropped. Both are installed only after
// the connection is up, and reply is held back until they are, so what
// the client accounts also shows that instrumenting reaches a live
// connection. The server reads the hello first: a close with unread
// input turns into an RST, which the client would classify as "read".
func dialFake(t *testing.T, reply []byte) (*Metrics, *obs.EventLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	instrumented := make(chan struct{}, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if msg, err := newFrameReader(conn).next(); err != nil || msg.Type != msgHello {
			t.Errorf("client's first frame: type %d, err %v, want a hello", msg.Type, err)
			return
		}
		<-instrumented
		_, _ = conn.Write(reply)
	}()

	client := dialTest(t, ln.Addr().String(), nil)
	cm := NewMetrics(obs.NewRegistry())
	client.SetMetrics(cm)
	events := obs.NewEventLog(16, nil)
	client.SetEvents(events)
	instrumented <- struct{}{}
	waitFor(t, "the connection to drop", func() bool { return !client.Connected() })
	return cm, events
}

// TestClientCountsWireErrors: a server that feeds the client a frame
// it cannot accept — here the right magic under a version this end
// does not speak — must show up in the client's cpi2_wire_errors_total
// and event log instead of a silent read-loop exit.
func TestClientCountsWireErrors(t *testing.T) {
	cm, events := dialFake(t, []byte{binMagic, 2, 0, 0, 0, 0})
	if got := cm.WireErrors.With("decode").Value(); got != 1 {
		t.Errorf("client decode errors = %v, want 1", got)
	}
	if data := oneWireError(t, events, "client", "decode"); !strings.Contains(data["error"], "wire v2") {
		t.Errorf("wire_error does not name the frame's version: %q", data["error"])
	}
}

// TestV3PeerRefused: a v3 peer (every sample field sent, the trace id
// as hex) is refused by the version of its first frame, a hello for
// v3, in both directions: its frames are never decoded as v4 samples.
func TestV3PeerRefused(t *testing.T) {
	hello := appendBinaryFrame(nil, wireMsg{Type: msgHello})
	hello[1], hello[len(hello)-1] = 3, 3 // a v3 header, a hello for v3
	t.Run("v3_client", func(t *testing.T) {
		addr, bus, m, events := wireTestServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "connection drop", func() bool {
			return m.WireErrors.With("decode").Value() == 1 && m.ConnectedAgents.Value() == 0
		})
		if data := oneWireError(t, events, "server", "decode"); !strings.Contains(data["error"], "wire v3") {
			t.Errorf("wire_error does not name the peer's version: %q", data["error"])
		}
		if received, _ := bus.Stats(); received != 0 || m.MessagesIn.Value() != 0 {
			t.Errorf("a v3 frame was taken in: %d samples, %v messages", received, m.MessagesIn.Value())
		}
	})
	t.Run("v3_server", func(t *testing.T) {
		cm, events := dialFake(t, hello)
		if got := cm.WireErrors.With("decode").Value(); got != 1 {
			t.Errorf("client decode errors = %v, want 1", got)
		}
		if data := oneWireError(t, events, "client", "decode"); !strings.Contains(data["error"], "wire v3") {
			t.Errorf("wire_error does not name the peer's version: %q", data["error"])
		}
	})
}

// TestV1PeerRefused: a peer speaking the v1 newline-delimited JSON
// framing is disconnected at its first byte, counted once under
// reason="decode", with an event that names the version — in both
// directions. (It used to be served, on a path 11× slower to decode.)
func TestV1PeerRefused(t *testing.T) {
	t.Run("v1_client", func(t *testing.T) {
		addr, bus, m, events := wireTestServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(`{"type":"samples","samples":[{"jobname":"j","cpi":1.5}]}` + "\n")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "connection drop", func() bool {
			return m.WireErrors.With("decode").Value() == 1 && m.ConnectedAgents.Value() == 0
		})
		if data := oneWireError(t, events, "server", "decode"); !strings.Contains(data["error"], "wire v4") {
			t.Errorf("wire_error does not name the version: %q", data["error"])
		}
		if received, dropped := bus.Stats(); received != 0 || dropped != 0 || m.MessagesIn.Value() != 0 {
			t.Errorf("v1 line reached the bus: received %d, dropped %d, %v messages in", received, dropped, m.MessagesIn.Value())
		}
	})
	t.Run("v1_server", func(t *testing.T) {
		cm, events := dialFake(t, []byte(`{"type":"hello","wire":2}`+"\n"))
		if got := cm.WireErrors.With("decode").Value(); got != 1 {
			t.Errorf("client decode errors = %v, want 1", got)
		}
		if data := oneWireError(t, events, "client", "decode"); !strings.Contains(data["error"], "wire v4") {
			t.Errorf("wire_error does not name the version: %q", data["error"])
		}
	})
}
