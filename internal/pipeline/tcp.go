package pipeline

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// Server is the TCP face of the aggregation service: it accepts agent
// connections, feeds published samples into the Bus, and pushes spec
// updates to subscribed agents.
type Server struct {
	bus *Bus

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
	// events, when set, receives one structured wire_error event per
	// abnormal connection drop (nil-safe).
	events *obs.EventLog
}

// NewServer creates a server around bus.
func NewServer(bus *Bus) *Server {
	return &Server{bus: bus, conns: make(map[*serverConn]struct{})}
}

// SetEvents directs the server's wire_error events to log (nil
// disables). Call before Serve.
func (s *Server) SetEvents(log *obs.EventLog) {
	s.mu.Lock()
	s.events = log
	s.mu.Unlock()
}

// Serve starts accepting on addr ("host:port", port 0 for ephemeral)
// and returns the bound address. It does not block; Close stops it.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pipeline: listen: %w", err)
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve accepts on ln until Close; tests hand it a listener whose
// connections they can watch.
func (s *Server) serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := s.newConn(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.bus.Watch(sc)
		sc.metrics().ConnectedAgents.Inc()
		s.wg.Add(1)
		go sc.readLoop()
	}
}

// newConn wraps conn as one of s's agent connections.
func (s *Server) newConn(conn net.Conn) *serverConn {
	s.mu.Lock()
	events := s.events
	s.mu.Unlock()
	return &serverConn{wireConn: newWireConn(conn, "server", s.bus.Metrics(), events), srv: s}
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	return err
}

// Limits of one connection's state, fixed like MaxFrameBytes: what a
// peer can make the aggregator hold or wait for is not a tuning knob.
const (
	// maxSubscribedKeys bounds the distinct keys a connection may
	// subscribe to. The subscribe frame that would pass it is refused as
	// a bad frame and the connection dropped; a peer that wants more
	// subscribes to everything.
	maxSubscribedKeys = 1 << 16
	// flushBytes is how many bytes of spec frames a connection's send
	// buffer collects inside a push before it is written out early, so a
	// subscribe-all connection never holds a whole push.
	flushBytes = 32 << 10
	// writeTimeout bounds one write to a peer, and so what a peer that
	// has stopped reading can cost whoever is writing to it.
	writeTimeout = 5 * time.Second
)

// wireConn is what both ends of a wire v4 connection share: the framed
// send buffer, the frame read loop, and their accounting.
//
// Sending is buffered: frames are appended to out and written whole, in
// the order they were appended, under one write deadline, by
// flushLocked. MessagesOut counts the frames of a write that succeeded.
// A write that fails closes the connection, so its read loop ends, and
// adds the spec frames it held to PushErrors; so does every later flush,
// until the owner stops using the connection. Every count goes to the
// metric set installed at the time, so instrumenting a live connection
// takes effect at its next read or write.
type wireConn struct {
	conn   net.Conn
	side   string // "server" or "client", as wire_error events name it
	m      atomic.Pointer[Metrics]
	events atomic.Pointer[obs.EventLog]

	writeMu sync.Mutex
	out     []byte
	// frames is the number of frames in out, specs how many of them are
	// spec pushes.
	frames, specs int
}

func newWireConn(conn net.Conn, side string, m *Metrics, events *obs.EventLog) *wireConn {
	c := &wireConn{conn: conn, side: side}
	c.instrument(m, events)
	return c
}

// instrument directs the connection's counters to m and its wire_error
// events to events (nil disables either).
func (c *wireConn) instrument(m *Metrics, events *obs.EventLog) {
	if m == nil {
		m = noMetrics
	}
	c.m.Store(m)
	c.events.Store(events)
}

func (c *wireConn) metrics() *Metrics { return c.m.Load() }

// Read reads from the connection, counting BytesIn.
func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.metrics().BytesIn.Add(float64(n))
	return n, err
}

// readFrames reads frames until the stream ends or handle refuses one,
// counting MessagesIn per frame. Garbage, an oversized frame, a
// mid-read failure and a refusal all go through noteWireError, so the
// drop is distinguishable from a clean close.
func (c *wireConn) readFrames(handle func(wireMsg) error) {
	fr := newFrameReader(c)
	for {
		msg, err := fr.next()
		if err == nil {
			c.metrics().MessagesIn.Inc()
			err = handle(msg)
		}
		if err != nil {
			c.noteWireError(err)
			return
		}
	}
}

// noteWireError accounts one abnormal read-loop exit: a bump of
// cpi2_wire_errors_total{reason} plus a wire_error event naming the
// side that saw it and the peer (on an agent, which aggregator shard's
// connection failed). Clean closes (EOF, our own Close) are not errors
// and are filtered here.
func (c *wireConn) noteWireError(err error) {
	if isCleanClose(err) {
		return
	}
	reason := wireErrorReason(err)
	c.metrics().WireErrors.With(reason).Inc()
	c.events.Load().Emit(time.Now().UTC(), "wire_error", map[string]string{
		"side":   c.side,
		"remote": c.conn.RemoteAddr().String(),
		"reason": reason,
		"error":  err.Error(),
	})
}

// send writes one frame now, behind whatever is waiting in out.
func (c *wireConn) send(msg wireMsg) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.appendLocked(msg)
	return c.flushLocked()
}

// appendLocked adds msg's frame to out. Callers hold writeMu.
func (c *wireConn) appendLocked(msg wireMsg) {
	c.out = appendBinaryFrame(c.out, msg)
	c.frames++
	if msg.Type == msgSpec {
		c.specs++
	}
}

// flushLocked writes out. Callers hold writeMu.
func (c *wireConn) flushLocked() error {
	if len(c.out) == 0 {
		return nil
	}
	m := c.metrics()
	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := c.conn.Write(c.out)
	m.BytesOut.Add(float64(n))
	if err != nil {
		m.PushErrors.Add(float64(c.specs))
		c.conn.Close() // the read loop ends and its owner cleans up
		err = fmt.Errorf("pipeline: send: %w", err)
	} else {
		m.MessagesOut.Add(float64(c.frames))
	}
	c.out, c.frames, c.specs = c.out[:0], 0, 0
	return err
}

// serverConn is one agent connection; it is a SpecWatcher. Spec frames
// wait in the send buffer until the bus flushes the connection at the
// end of the push, or until they pass flushBytes; a hello is answered at
// once, behind them.
type serverConn struct {
	*wireConn
	srv *Server
	// memo resolves the keys of the connection's samples to the
	// builder's slots; only the read loop uses it.
	memo core.KeyMemo

	subMu      sync.Mutex
	subAll     bool
	subscribed map[model.SpecKey]bool
	dead       bool
	// interest is the connection's InterestVersion: bumped under subMu
	// by every subscribe frame that adds something and by the
	// connection's death.
	interest atomic.Uint64
}

func (c *serverConn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		c.markDead()
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		// Deregister from the bus, or a long-running aggregator
		// accumulates one dead watcher per agent reconnect.
		c.srv.bus.Unwatch(c)
		c.metrics().ConnectedAgents.Dec()
	}()
	c.readFrames(c.handle)
}

// handle serves one frame from the agent; an error drops the connection.
func (c *serverConn) handle(msg wireMsg) error {
	switch msg.Type {
	case msgSamples:
		_ = c.srv.bus.publish(&c.memo, msg.Samples)
	case msgSubscribe:
		return c.subscribe(msg.Jobs)
	case msgHello:
		// Answer with our own; a hello for another version never gets
		// here (the decoder refuses it).
		return c.send(wireMsg{Type: msgHello})
	}
	// Unknown message types are ignored for forward compatibility.
	return nil
}

// subscribe adds keys (none: every key) to what the connection wants.
// The key that would take it past maxSubscribedKeys is refused with an
// error wrapping errBadFrame; the caller drops the connection.
func (c *serverConn) subscribe(keys []model.SpecKey) error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	var err error
	changed := false
	if len(keys) == 0 && !c.subAll {
		c.subAll, changed = true, true
	}
	for _, k := range keys {
		if c.subscribed[k] {
			continue
		}
		if len(c.subscribed) >= maxSubscribedKeys {
			err = fmt.Errorf("%w: subscription to more than %d keys", errBadFrame, maxSubscribedKeys)
			break
		}
		if c.subscribed == nil {
			c.subscribed = make(map[model.SpecKey]bool)
		}
		c.subscribed[k] = true
		changed = true
	}
	if changed {
		c.interest.Add(1)
	}
	return err
}

// markDead makes the connection want nothing from here on.
func (c *serverConn) markDead() {
	c.subMu.Lock()
	c.dead = true
	c.interest.Add(1)
	c.subMu.Unlock()
}

// flushSpecs implements specFlusher: the bus calls it once at the end of
// every push.
func (c *serverConn) flushSpecs() {
	c.writeMu.Lock()
	_ = c.flushLocked() // accounted there; the read loop sees the close
	c.writeMu.Unlock()
}

// WantSpec implements SpecWatcher.
func (c *serverConn) WantSpec(key model.SpecKey) bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.dead {
		return false
	}
	return c.subAll || c.subscribed[key]
}

// InterestVersion implements SpecWatcher.
func (c *serverConn) InterestVersion() uint64 { return c.interest.Load() }

// DeliverSpec implements SpecWatcher: the spec's frame joins the send
// buffer and goes out with the next flush.
func (c *serverConn) DeliverSpec(spec model.Spec) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.appendLocked(wireMsg{Type: msgSpec, Spec: spec})
	if len(c.out) >= flushBytes {
		_ = c.flushLocked()
	}
}
