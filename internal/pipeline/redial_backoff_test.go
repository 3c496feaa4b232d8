package pipeline

import (
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestFullJitterBackoffBounds: every draw must land in
// [1ms, min(max, base·2^attempt)], with the ceiling growing per
// attempt and saturating at max.
func TestFullJitterBackoffBounds(t *testing.T) {
	const base, max = 100 * time.Millisecond, 2 * time.Second
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 12; attempt++ {
		ceil := base << uint(attempt)
		if ceil > max || ceil <= 0 { // <=0 guards shift overflow in the test itself
			ceil = max
		}
		for i := 0; i < 200; i++ {
			d := FullJitterBackoff(attempt, base, max, rng.Float64())
			if d < time.Millisecond {
				t.Fatalf("attempt %d: backoff %v under the 1ms floor", attempt, d)
			}
			if d > ceil {
				t.Fatalf("attempt %d: backoff %v over ceiling %v", attempt, d, ceil)
			}
		}
	}
}

// TestFullJitterBackoffDecorrelates is the reconnect-storm property:
// two subscribers that lose the same shard on the same tick must not
// sleep the same duration. With full jitter the collision probability
// is ~0; with the old deterministic doubling it was 1.
func TestFullJitterBackoffDecorrelates(t *testing.T) {
	a := rand.New(rand.NewSource(1))
	b := rand.New(rand.NewSource(2))
	same := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		da := FullJitterBackoff(i%6, 100*time.Millisecond, 30*time.Second, a.Float64())
		db := FullJitterBackoff(i%6, 100*time.Millisecond, 30*time.Second, b.Float64())
		if da == db {
			same++
		}
	}
	if same > trials/10 {
		t.Errorf("%d/%d backoff collisions between independent subscribers — jitter is not spreading", same, trials)
	}
}

// TestFullJitterBackoffDeterministic: same rnd sequence, same sleeps —
// what lets the simulator drive reconnect delays from its per-machine
// RNG streams and stay byte-identical at any worker count.
func TestFullJitterBackoffDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		rng := rand.New(rand.NewSource(7))
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = FullJitterBackoff(i, 50*time.Millisecond, time.Second, rng.Float64())
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v vs %v — backoff not a pure function of (attempt, rnd)", i, a[i], b[i])
		}
	}
}

// TestRedialPaceDefaults pins the Redialer's pacing: a first re-dial
// within 100ms, a ceiling that doubles per attempt and stops at 30s.
func TestRedialPaceDefaults(t *testing.T) {
	for attempt, ceil := range map[int]time.Duration{0: 100 * time.Millisecond, 3: 800 * time.Millisecond, 20: 30 * time.Second} {
		longest := time.Duration(0)
		for i := 0; i < 200; i++ {
			longest = max(longest, redialPace(attempt))
		}
		if longest > ceil || longest < ceil/2 {
			t.Errorf("attempt %d: longest of 200 draws %v, want within (%v, %v]", attempt, longest, ceil/2, ceil)
		}
	}
}

// TestRedialerPacesRefusedConnections: a peer that accepts every dial
// and then drops the connection — here a v1 aggregator, whose JSON the
// client refuses at its first byte — is re-dialed at the backoff's
// pace, one draw between each pair of connections, not in a tight
// loop. (Counted in draws, not timed.)
func TestRedialerPacesRefusedConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const conns = 5
	accepted := make(chan struct{}, conns)
	go func() {
		for i := 0; i < conns; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = conn.Write([]byte(`{"type":"hello","wire":2}` + "\n"))
			conn.Close()
			accepted <- struct{}{}
		}
	}()
	var draws atomic.Int64
	rd := newRedialer(ln.Addr().String(), nil, func(int) time.Duration {
		draws.Add(1)
		return time.Millisecond
	})
	defer rd.Close()
	for i := 0; i < conns; i++ {
		<-accepted
	}
	if got := draws.Load(); got < conns-1 {
		t.Errorf("%d connections refused after %d backoff draws, want one between each pair", conns, got)
	}
}
