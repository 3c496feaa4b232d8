package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Redialer is the agent end of the wire: a SampleSink that keeps one
// connection to an aggregation server, says hello on it, replays its
// subscriptions, reads spec pushes off it, and re-dials with capped
// full-jitter backoff whenever a dial fails or the connection drops.
// Batches published while no connection is up are dropped (and
// counted) — at-most-once delivery, same as the underlying pipe.
type Redialer struct {
	addr   string
	onSpec func(model.Spec)
	// pace is the sleep before re-dial attempt number attempt (0-based).
	pace func(attempt int) time.Duration

	mu        sync.Mutex
	metrics   *Metrics // never nil
	events    *obs.EventLog
	conn      *wireConn                  // the live connection; nil while down
	subs      []model.SpecKey            // replay order: first-subscription order
	subSet    map[model.SpecKey]struct{} // dedup for subs
	subAll    bool
	closed    bool
	onConnect func()

	cancel context.CancelFunc
	done   chan struct{}
}

// Re-dial pacing: the backoff ceiling starts at redialBase and doubles
// per consecutive failure up to redialMax.
const (
	redialBase = 100 * time.Millisecond
	redialMax  = 30 * time.Second
)

// redialPace is the Redialer's backoff: full jitter over the ceiling.
func redialPace(attempt int) time.Duration {
	return FullJitterBackoff(attempt, redialBase, redialMax, rand.Float64())
}

// FullJitterBackoff computes the sleep before re-dial attempt number
// attempt (0-based): a uniform draw from (0, min(max, base·2^attempt)].
// Full jitter — rather than ±20% around the deterministic doubling —
// is what breaks reconnect storms: when a shard comes back from a
// blackout, its N subscribers all saw the connection die on the same
// tick, and with correlated backoff they would all re-dial on the same
// tick too, every round. Spreading each sleep uniformly over the whole
// window decorrelates them after the very first attempt. rnd must be
// in [0,1); the result is floored at 1ms so a zero draw cannot busy-
// spin the dial loop.
func FullJitterBackoff(attempt int, base, max time.Duration, rnd float64) time.Duration {
	if base <= 0 {
		base = redialBase
	}
	if max < base {
		max = base
	}
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	d := time.Duration(rnd * float64(ceil))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// NewRedialer starts a reconnecting client for addr. onSpec (may be
// nil) is invoked on the connection's read goroutine for every spec
// push, across reconnects. The first dial happens in the background;
// Publish before it completes counts a dropped batch.
func NewRedialer(addr string, onSpec func(model.Spec)) *Redialer {
	return newRedialer(addr, onSpec, redialPace)
}

func newRedialer(addr string, onSpec func(model.Spec), pace func(int) time.Duration) *Redialer {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Redialer{
		addr:    addr,
		onSpec:  onSpec,
		pace:    pace,
		metrics: noMetrics,
		subSet:  make(map[model.SpecKey]struct{}),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go r.loop(ctx)
	return r
}

// SetMetrics instruments the redialer and its current and future
// connections. A nil m disables instrumentation.
func (r *Redialer) SetMetrics(m *Metrics) {
	if m == nil {
		m = noMetrics
	}
	r.mu.Lock()
	r.metrics = m
	if r.conn != nil {
		r.conn.instrument(m, r.events)
	}
	r.mu.Unlock()
}

// SetEvents directs wire_error events from the current and all future
// connections to log (nil disables).
func (r *Redialer) SetEvents(log *obs.EventLog) {
	r.mu.Lock()
	r.events = log
	if r.conn != nil {
		r.conn.instrument(r.metrics, log)
	}
	r.mu.Unlock()
}

// SetOnConnect registers fn to be called after every successful
// (re)connect, once subscriptions have been replayed. A spooling sink
// uses it to kick replay the moment the pipe is back. A nil fn clears
// the hook.
func (r *Redialer) SetOnConnect(fn func()) {
	r.mu.Lock()
	r.onConnect = fn
	r.mu.Unlock()
}

// Subscribe asks for spec pushes for the given keys; with no keys, for
// every spec. The subscription is sent on the current connection (if
// any) and replayed after every reconnect. Keys are deduplicated:
// re-subscribing to a key already held is a no-op, so the replay list
// stays bounded by the number of distinct keys no matter how often
// callers re-subscribe.
func (r *Redialer) Subscribe(keys ...model.SpecKey) error {
	r.mu.Lock()
	var fresh []model.SpecKey
	if len(keys) == 0 {
		r.subAll = true
	} else {
		for _, k := range keys {
			if _, dup := r.subSet[k]; dup {
				continue
			}
			r.subSet[k] = struct{}{}
			r.subs = append(r.subs, k)
			fresh = append(fresh, k)
		}
	}
	c := r.conn
	r.mu.Unlock()
	if c == nil || (len(keys) > 0 && len(fresh) == 0) {
		return nil // sent on connect, or all duplicates the server has
	}
	return c.send(wireMsg{Type: msgSubscribe, Jobs: fresh})
}

// Publish implements SampleSink. With no live connection the batch is
// dropped and counted; a send error also closes the connection, so the
// loop re-dials.
func (r *Redialer) Publish(samples []model.Sample) error {
	r.mu.Lock()
	c, m := r.conn, r.metrics
	r.mu.Unlock()
	if c == nil {
		m.DroppedBatches.Inc()
		return errors.New("pipeline: not connected")
	}
	if len(samples) == 0 {
		return nil
	}
	if err := c.send(wireMsg{Type: msgSamples, Samples: samples}); err != nil {
		m.DroppedBatches.Inc()
		return err
	}
	return nil
}

// Connected reports whether a connection is currently up.
func (r *Redialer) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn != nil
}

// Close stops redialing, tears down any live connection and waits for
// its read loop to end.
func (r *Redialer) Close() error {
	r.mu.Lock()
	r.closed = true
	if r.conn != nil {
		r.conn.conn.Close()
	}
	r.mu.Unlock()
	r.cancel()
	<-r.done
	return nil
}

func (r *Redialer) loop(ctx context.Context) {
	defer close(r.done)
	var dialer net.Dialer
	attempt, reconnect := 0, false
	for {
		if conn, err := dialer.DialContext(ctx, "tcp", r.addr); err == nil {
			connected := time.Now()
			if !r.serve(conn, reconnect) {
				return
			}
			reconnect = true
			// A connection that outlived the longest backoff starts the
			// pacing over. One that died young is paced like a failed dial:
			// a peer that accepts and then drops every connection — one
			// that speaks another wire version refuses ours at the first
			// frame — would otherwise be re-dialed in a tight loop.
			if time.Since(connected) >= redialMax {
				attempt = 0
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(r.pace(attempt)):
		}
		attempt++
	}
}

// serve makes conn the live connection until it ends: it says hello,
// replays the subscriptions, calls the onConnect hook and reads spec
// pushes. It reports false, with conn closed, if the redialer was
// closed first.
func (r *Redialer) serve(conn net.Conn, reconnect bool) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return false
	}
	c := newWireConn(conn, "client", r.metrics, r.events)
	// The hello is the connection's first frame: no Publish can find the
	// connection before it is written, and six bytes on a fresh
	// connection cannot wait for buffer space while r.mu is held. The
	// server's answer is not waited for; a peer that is not wire v4 shows
	// as a wire_error on whichever side reads the other's first frame. A
	// failed write closes c, so the read below ends at once.
	_ = c.send(wireMsg{Type: msgHello})
	if reconnect {
		r.metrics.Reconnects.Inc()
	}
	r.conn = c
	subAll, subs, onConnect := r.subAll, slices.Clone(r.subs), r.onConnect
	r.mu.Unlock()

	read := make(chan struct{})
	go func() {
		defer close(read)
		c.readFrames(r.handle)
	}()
	if subAll {
		_ = c.send(wireMsg{Type: msgSubscribe})
	}
	if len(subs) > 0 {
		_ = c.send(wireMsg{Type: msgSubscribe, Jobs: subs})
	}
	if onConnect != nil {
		onConnect()
	}
	<-read
	conn.Close()
	r.mu.Lock()
	r.conn = nil
	r.mu.Unlock()
	return true
}

// handle serves one frame from the aggregator.
func (r *Redialer) handle(msg wireMsg) error {
	// The server's hello needs no action: one for another version never
	// gets here (the decoder refuses it).
	if msg.Type == msgSpec && r.onSpec != nil {
		r.onSpec(msg.Spec)
	}
	return nil
}
