package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
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

// noteWireError accounts one abnormal read-loop exit: a metric bump
// under cpi2_wire_errors_total{reason} plus a structured event. Clean
// closes (EOF, our own Close) are not errors and are filtered here.
func (s *Server) noteWireError(remote string, err error) {
	if isCleanClose(err) {
		return
	}
	reason := wireErrorReason(err)
	s.bus.Metrics().WireErrors.With(reason).Inc()
	if shard := s.bus.Shard(); shard != "" {
		s.bus.Metrics().WireErrorsByShard.With(reason, shard).Inc()
	}
	s.mu.Lock()
	log := s.events
	s.mu.Unlock()
	log.Emit(time.Now().UTC(), "wire_error", map[string]string{
		"side":   "server",
		"remote": remote,
		"reason": reason,
		"error":  err.Error(),
	})
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
		m := s.bus.Metrics()
		sc := &serverConn{srv: s, conn: conn, m: m, w: countingWriter{conn, m.BytesOut}}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.bus.Watch(sc)
		m.ConnectedAgents.Inc()
		s.wg.Add(1)
		go sc.readLoop()
	}
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

// serverConn is one agent connection; it is a SpecWatcher.
//
// Sending is buffered: DeliverSpec appends its frame to out, and out is
// written when the bus flushes the connection at the end of the push,
// when it passes flushBytes, or when the read loop answers a hello —
// always whole, in the order the frames were appended, under one write
// deadline. MessagesOut counts the frames of a write that succeeded. A
// write that fails closes the connection and adds the spec frames it
// held to PushErrors; so does every later flush of that connection,
// until the read loop has unwatched it.
type serverConn struct {
	srv  *Server
	conn net.Conn
	m    *Metrics

	writeMu sync.Mutex
	w       countingWriter
	out     []byte
	// frames is the number of frames in out, specs how many of them are
	// spec pushes.
	frames, specs int

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
		c.m.ConnectedAgents.Dec()
	}()
	fr := newFrameReader(countingReader{c.conn, c.m.BytesIn})
	for {
		msg, err := fr.next()
		if err != nil {
			// Garbage, oversized, or mid-read failure: account it so the
			// drop is distinguishable from a clean close (which is
			// filtered inside noteWireError), then drop the connection.
			c.srv.noteWireError(c.conn.RemoteAddr().String(), err)
			return
		}
		c.m.MessagesIn.Inc()
		switch msg.Type {
		case msgSamples:
			_ = c.srv.bus.Publish(msg.Samples)
		case msgSubscribe:
			if err := c.subscribe(msg.Jobs); err != nil {
				c.srv.noteWireError(c.conn.RemoteAddr().String(), err)
				return
			}
		case msgHello:
			// Answer with our own; a hello for another version never gets
			// here (the decoder refuses it).
			if err := c.send(wireMsg{Type: msgHello}); err != nil {
				c.srv.noteWireError(c.conn.RemoteAddr().String(), err)
				return
			}
		default:
			// Unknown message types are ignored for forward
			// compatibility.
		}
	}
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

// send writes one frame now, behind whatever is waiting in out.
func (c *serverConn) send(msg wireMsg) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.out = appendBinaryFrame(c.out, msg)
	c.frames++
	return c.flushLocked()
}

// flushLocked writes out. Callers hold writeMu.
func (c *serverConn) flushLocked() error {
	if len(c.out) == 0 {
		return nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.w.Write(c.out)
	if err != nil {
		c.m.PushErrors.Add(float64(c.specs))
		c.conn.Close() // readLoop will clean up
	} else {
		c.m.MessagesOut.Add(float64(c.frames))
	}
	c.out, c.frames, c.specs = c.out[:0], 0, 0
	return err
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
	traceID := trace.SpecTraceID(spec.Key().String(), spec.UpdatedAt)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.out = appendBinaryFrame(c.out, wireMsg{Type: msgSpec, Spec: spec, TraceID: traceID})
	c.frames++
	c.specs++
	if len(c.out) >= flushBytes {
		_ = c.flushLocked()
	}
}

// Client is the agent-side pipeline endpoint: it publishes sample
// batches and receives spec pushes.
type Client struct {
	conn net.Conn
	m    atomic.Pointer[Metrics]

	writeMu sync.Mutex
	sendBuf []byte

	events atomic.Pointer[obs.EventLog]
	// shard labels this client's wire errors with the aggregator shard
	// it is connected to ("" = unlabelled).
	shard  atomic.Pointer[string]
	onSpec func(model.Spec)
	done   chan struct{}
}

// Dial connects to an aggregation server and says hello. onSpec is
// invoked (on the client's read goroutine) for every spec push; it may
// be nil. The server's hello is not waited for: a peer that is not
// wire v2 shows as a wire_error on whichever side reads the other's
// first frame.
func Dial(ctx context.Context, addr string, onSpec func(model.Spec)) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pipeline: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:   conn,
		onSpec: onSpec,
		done:   make(chan struct{}),
	}
	go c.readLoop()
	if err := c.send(wireMsg{Type: msgHello}); err != nil {
		c.Close()
		return nil, fmt.Errorf("pipeline: dial %s: hello: %w", addr, err)
	}
	return c, nil
}

// SetEvents directs the client's wire_error events to log (nil
// disables). Safe to call at any time.
func (c *Client) SetEvents(log *obs.EventLog) { c.events.Store(log) }

// SetMetrics instruments the client with m (nil disables). Safe to
// call at any time; counting starts with the next read/write.
func (c *Client) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	c.m.Store(m)
}

// SetShard labels the client's by-shard wire-error series with the
// aggregator shard this connection serves ("" disables). A multi-shard
// agent dials one client per shard and tags each with its shard.
func (c *Client) SetShard(shard string) { c.shard.Store(&shard) }

func (c *Client) shardLabel() string {
	if s := c.shard.Load(); s != nil {
		return *s
	}
	return ""
}

var noMetrics = &Metrics{}

func (c *Client) metrics() *Metrics {
	if m := c.m.Load(); m != nil {
		return m
	}
	return noMetrics
}

// clientReader/clientWriter resolve the metric set per call so
// SetMetrics works even after I/O has started.
type clientReader struct{ c *Client }

func (r clientReader) Read(p []byte) (int, error) {
	n, err := r.c.conn.Read(p)
	r.c.metrics().BytesIn.Add(float64(n))
	return n, err
}

type clientWriter struct{ c *Client }

func (w clientWriter) Write(p []byte) (int, error) {
	n, err := w.c.conn.Write(p)
	w.c.metrics().BytesOut.Add(float64(n))
	return n, err
}

// Done is closed when the connection is gone and the read loop has
// exited — the redial signal.
func (c *Client) Done() <-chan struct{} { return c.done }

func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(clientReader{c})
	for {
		msg, err := fr.next()
		if err != nil {
			c.noteWireError(err)
			return
		}
		c.metrics().MessagesIn.Inc()
		// The server's hello needs no action: one for another version
		// never gets here (the decoder refuses it).
		if msg.Type == msgSpec && c.onSpec != nil {
			c.onSpec(msg.Spec)
		}
	}
}

// noteWireError mirrors Server.noteWireError for the agent side.
func (c *Client) noteWireError(err error) {
	if isCleanClose(err) {
		return
	}
	reason := wireErrorReason(err)
	c.metrics().WireErrors.With(reason).Inc()
	if shard := c.shardLabel(); shard != "" {
		c.metrics().WireErrorsByShard.With(reason, shard).Inc()
	}
	c.events.Load().Emit(time.Now().UTC(), "wire_error", map[string]string{
		"side":   "client",
		"remote": c.conn.RemoteAddr().String(),
		"reason": reason,
		"error":  err.Error(),
	})
}

// Publish sends one batch of samples (implements SampleSink).
func (c *Client) Publish(samples []model.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	return c.send(wireMsg{Type: msgSamples, Samples: samples})
}

// Subscribe asks for spec pushes for the given keys; with no keys, it
// subscribes to all specs.
func (c *Client) Subscribe(keys ...model.SpecKey) error {
	return c.send(wireMsg{Type: msgSubscribe, Jobs: keys})
}

func (c *Client) send(msg wireMsg) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	c.sendBuf = appendBinaryFrame(c.sendBuf[:0], msg)
	if _, err := (clientWriter{c}).Write(c.sendBuf); err != nil {
		return fmt.Errorf("pipeline: send: %w", err)
	}
	c.metrics().MessagesOut.Inc()
	return nil
}

// Close tears down the connection and waits for the read loop to end.
// Closing an already-closed connection is not an error.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
