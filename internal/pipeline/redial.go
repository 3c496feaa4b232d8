package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Redialer is a SampleSink that maintains a client connection to an
// aggregation server, re-dialing with capped full-jitter backoff
// whenever a dial fails or the connection drops. Batches published
// while no connection is up are dropped (and counted) — at-most-once
// delivery, same as the underlying pipe.
type Redialer struct {
	addr   string
	onSpec func(model.Spec)
	cfg    RedialConfig

	mu        sync.Mutex
	metrics   *Metrics // never nil
	events    *obs.EventLog
	shard     string // aggregator shard this redialer serves; "" = unsharded
	client    *Client
	subs      []model.SpecKey            // replay order: first-subscription order
	subSet    map[model.SpecKey]struct{} // dedup for subs
	subAll    bool
	closed    bool
	onConnect func()

	cancel context.CancelFunc
	done   chan struct{}
}

// maxRedialBackoff caps the exponential re-dial backoff.
const maxRedialBackoff = 30 * time.Second

// RedialConfig tunes the re-dial backoff. The zero value gets the
// defaults from Sanitize.
type RedialConfig struct {
	// Base is the backoff ceiling for the first failed dial (default
	// 100ms); the ceiling doubles per consecutive failure up to Max
	// (default 30s).
	Base time.Duration
	Max  time.Duration
	// Rand supplies the jitter randomness in [0,1); defaults to the
	// global math/rand source. Tests (and deterministic simulations)
	// inject a seeded one.
	Rand func() float64
}

// Sanitize fills defaults for unset fields.
func (c RedialConfig) Sanitize() RedialConfig {
	if c.Base <= 0 {
		c.Base = 100 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = maxRedialBackoff
	}
	if c.Max < c.Base {
		c.Max = c.Base
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
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
		base = 100 * time.Millisecond
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

// NewRedialer starts a reconnecting client for addr with default
// backoff. onSpec (may be nil) is invoked for every spec push, across
// reconnects. The first dial happens in the background; Publish before
// it completes counts a dropped batch.
func NewRedialer(addr string, onSpec func(model.Spec)) *Redialer {
	return NewRedialerWith(addr, onSpec, RedialConfig{})
}

// NewRedialerWith is NewRedialer with explicit backoff tuning.
func NewRedialerWith(addr string, onSpec func(model.Spec), cfg RedialConfig) *Redialer {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Redialer{
		addr:    addr,
		onSpec:  onSpec,
		cfg:     cfg.Sanitize(),
		metrics: &Metrics{},
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
		m = &Metrics{}
	}
	r.mu.Lock()
	r.metrics = m
	if r.client != nil {
		r.client.SetMetrics(m)
	}
	r.mu.Unlock()
}

// SetShard labels the current and all future connections with the
// aggregator shard this redialer serves, so wire errors land in the
// per-shard series. "" (the default) leaves connections unsharded.
func (r *Redialer) SetShard(shard string) {
	r.mu.Lock()
	r.shard = shard
	if r.client != nil {
		r.client.SetShard(shard)
	}
	r.mu.Unlock()
}

// SetEvents directs wire_error events from the current and all future
// connections to log (nil disables).
func (r *Redialer) SetEvents(log *obs.EventLog) {
	r.mu.Lock()
	r.events = log
	if r.client != nil {
		r.client.SetEvents(log)
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

// Subscribe records the subscription and forwards it on the current
// connection (if any); it is replayed after every reconnect. Keys are
// deduplicated: re-subscribing to a key already held is a no-op, so
// the replay list stays bounded by the number of distinct keys no
// matter how often callers re-subscribe.
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
	c := r.client
	r.mu.Unlock()
	if c == nil {
		return nil // will be sent on connect
	}
	if len(keys) == 0 {
		return c.Subscribe()
	}
	if len(fresh) == 0 {
		return nil // all duplicates; the server already has them
	}
	return c.Subscribe(fresh...)
}

// Publish implements SampleSink. With no live connection the batch is
// dropped and counted; a send error tears the connection down so the
// loop re-dials.
func (r *Redialer) Publish(samples []model.Sample) error {
	r.mu.Lock()
	c := r.client
	m := r.metrics
	r.mu.Unlock()
	if c == nil {
		m.DroppedBatches.Inc()
		return errors.New("pipeline: not connected")
	}
	if err := c.Publish(samples); err != nil {
		m.DroppedBatches.Inc()
		c.conn.Close() // wake the loop to re-dial
		return err
	}
	return nil
}

// Connected reports whether a connection is currently up.
func (r *Redialer) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.client != nil
}

// Close stops redialing and tears down any live connection.
func (r *Redialer) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	c := r.client
	r.mu.Unlock()
	r.cancel()
	if c != nil {
		c.Close()
	}
	<-r.done
	return nil
}

func (r *Redialer) loop(ctx context.Context) {
	defer close(r.done)
	first := true
	attempt := 0
	// pause sleeps the backoff before the next dial; false means closed.
	pause := func() bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(FullJitterBackoff(attempt, r.cfg.Base, r.cfg.Max, r.cfg.Rand())):
		}
		attempt++
		return true
	}
	for {
		c, err := Dial(ctx, r.addr, r.onSpec)
		if err != nil {
			if !pause() {
				return
			}
			continue
		}
		connected := time.Now()

		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return
		}
		c.SetMetrics(r.metrics)
		c.SetEvents(r.events)
		c.SetShard(r.shard)
		if !first {
			r.metrics.Reconnects.Inc()
		}
		subAll, subs := r.subAll, append([]model.SpecKey(nil), r.subs...)
		onConnect := r.onConnect
		r.client = c
		r.mu.Unlock()
		first = false

		// Replay subscriptions on the fresh connection.
		if subAll {
			_ = c.Subscribe()
		}
		if len(subs) > 0 {
			_ = c.Subscribe(subs...)
		}
		if onConnect != nil {
			onConnect()
		}

		select {
		case <-ctx.Done():
			r.mu.Lock()
			r.client = nil
			r.mu.Unlock()
			c.Close()
			return
		case <-c.Done():
			r.mu.Lock()
			r.client = nil
			r.mu.Unlock()
		}
		// A connection that outlived the longest backoff starts the pacing
		// over. One that died young is paced like a failed dial: a peer
		// that accepts and then drops every connection — one that speaks
		// another wire version refuses ours at the first frame — would
		// otherwise be re-dialed in a tight loop.
		if time.Since(connected) >= r.cfg.Max {
			attempt = 0
		}
		if !pause() {
			return
		}
	}
}
