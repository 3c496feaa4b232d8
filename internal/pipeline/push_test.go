package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// delivery is one DeliverSpec call as a watcher saw it.
type delivery struct {
	who int
	key model.SpecKey
	at  time.Time
}

// jobWatcher is an in-process watcher shaped like an agent: it wants
// the specs of the jobs it has tasks of, on one platform, and bumps its
// version when a job's first task arrives or its last leaves. It counts
// the probes it answers and appends what it is delivered to a log it
// may share with other watchers, so the order across watchers shows.
type jobWatcher struct {
	id       int
	platform model.Platform
	log      *[]delivery
	probes   atomic.Int64

	mu      sync.Mutex
	tasks   map[model.JobName]int
	version atomic.Uint64
}

func newJobWatcher(id int, platform model.Platform, log *[]delivery) *jobWatcher {
	return &jobWatcher{id: id, platform: platform, log: log, tasks: make(map[model.JobName]int)}
}

func (w *jobWatcher) addTask(job model.JobName, delta int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.tasks[job] + delta
	if n < 0 {
		return
	}
	w.tasks[job] = n
	if n == 0 || (delta > 0 && n == 1) {
		w.version.Add(1)
	}
}

func (w *jobWatcher) WantSpec(key model.SpecKey) bool {
	w.probes.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	return key.Platform == w.platform && w.tasks[key.Job] > 0
}

func (w *jobWatcher) InterestVersion() uint64 { return w.version.Load() }

func (w *jobWatcher) DeliverSpec(spec model.Spec) {
	w.mu.Lock()
	defer w.mu.Unlock()
	*w.log = append(*w.log, delivery{w.id, spec.Key(), spec.UpdatedAt})
}

// fakeConn is the send side of a connection: every Write is kept, whole.
// With stall set a Write fails the way one to a peer that has stopped
// reading does once its deadline passes — and is counted, because the
// real one would have cost the writer that deadline.
type fakeConn struct {
	net.Conn // nil: only what serverConn's send side calls is there
	mu       sync.Mutex
	writes   [][]byte
	stall    bool
	stalled  int
	closed   bool
}

func (c *fakeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return 0, net.ErrClosed
	case c.stall:
		c.stalled++
		return 0, fmt.Errorf("write: %w", errTimeout{})
	}
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

func (c *fakeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// taken returns the writes so far and forgets them.
func (c *fakeConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

type errTimeout struct{}

func (errTimeout) Error() string { return "i/o timeout" }
func (errTimeout) Timeout() bool { return true }

// newFakeServerConn is a serverConn of srv over a fakeConn, with no read
// loop: the test plays the peer by calling subscribe and markDead.
func newFakeServerConn(srv *Server) (*serverConn, *fakeConn) {
	fc := &fakeConn{}
	return srv.newConn(fc), fc
}

// framesOf decodes writes, each of which must hold whole frames only.
func framesOf(t *testing.T, writes [][]byte) []wireMsg {
	t.Helper()
	var msgs []wireMsg
	for i, w := range writes {
		fr := newFrameReader(bytes.NewReader(w))
		for {
			msg, err := fr.next()
			if err != nil {
				if !isCleanClose(err) {
					t.Fatalf("write %d of %d bytes does not end on a frame boundary: %v", i, len(w), err)
				}
				break
			}
			msgs = append(msgs, msg)
		}
	}
	return msgs
}

// scan is the push this PR replaced, kept as the reference: every spec
// is offered to every watcher, in registration order.
func scan(watchers []SpecWatcher, specs []model.Spec, deliver func(w SpecWatcher, spec model.Spec)) {
	for _, spec := range specs {
		for _, w := range watchers {
			if w.WantSpec(spec.Key()) {
				deliver(w, spec)
			}
		}
	}
}

func pushTestKeys(n int) []model.SpecKey {
	keys := make([]model.SpecKey, n)
	for i := range keys {
		keys[i] = model.SpecKey{Job: model.JobName("job-" + strconv.Itoa(i/2)), Platform: model.PlatformA}
		if i%2 == 1 {
			keys[i].Platform = model.PlatformB
		}
	}
	return keys
}

func specsFor(keys []model.SpecKey, at time.Time) []model.Spec {
	specs := make([]model.Spec, len(keys))
	for i, k := range keys {
		specs[i] = model.Spec{Job: k.Job, Platform: k.Platform, NumSamples: 1000, NumTasks: 10, CPIMean: 1.5, CPIStddev: 0.1, UpdatedAt: at}
	}
	return specs
}

// TestPushMatchesScan drives a bus through a seeded random sequence of
// Watch, Unwatch, subscribe, connection death, task arrival, task exit
// and Push (a random subset of the keys, in random order) and checks
// every push against the specs × watchers scan: the same deliveries, in
// the same order — across the in-process watchers, and frame by frame on
// each connection — and the same SpecPushes and spec_push spans, with
// the watcher gauge equal to the registrations.
func TestPushMatchesScan(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 1000
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) { pushMatchesScan(t, seed, steps) })
	}
}

func pushMatchesScan(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	keys := pushTestKeys(40)
	jobs := func() model.JobName { return keys[rng.Intn(len(keys))].Job }

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tracer := trace.NewStore(256)
	bus, err := NewShardBus(core.DefaultParams(), "shard-0", NewRing([]string{"shard-0"}, 0), reg, tracer, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bus)

	var log []delivery
	var watchers []SpecWatcher // the test's own copy of the registration order
	var agents []*jobWatcher
	conns := map[*serverConn]*fakeConn{}
	var connList []*serverConn
	nextID := 0
	pushes, wantPushes := 0, 0.0

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 12: // an agent arrives
			w := newJobWatcher(nextID, keys[rng.Intn(2)].Platform, &log)
			nextID++
			for i := rng.Intn(4); i > 0; i-- {
				w.addTask(jobs(), +1)
			}
			agents = append(agents, w)
			watchers = append(watchers, w)
			bus.Watch(w)
		case op < 18: // a connection arrives
			sc, fc := newFakeServerConn(srv)
			conns[sc] = fc
			connList = append(connList, sc)
			watchers = append(watchers, sc)
			bus.Watch(sc)
		case op < 28 && len(watchers) > 0: // a watcher leaves
			i := rng.Intn(len(watchers))
			bus.Unwatch(watchers[i])
			watchers = slices.Delete(watchers, i, i+1)
		case op < 40 && len(connList) > 0: // a subscribe frame
			sc := connList[rng.Intn(len(connList))]
			var sub []model.SpecKey
			if rng.Intn(8) > 0 {
				for i := 1 + rng.Intn(5); i > 0; i-- {
					sub = append(sub, keys[rng.Intn(len(keys))])
				}
			}
			if err := sc.subscribe(sub); err != nil {
				t.Fatal(err)
			}
		case op < 43 && len(connList) > 0: // a connection dies, not yet unwatched
			connList[rng.Intn(len(connList))].markDead()
		case op < 60 && len(agents) > 0: // a task arrives or exits
			delta := +1
			if rng.Intn(2) == 0 {
				delta = -1
			}
			agents[rng.Intn(len(agents))].addTask(jobs(), delta)
		default: // a push
			subset := make([]model.SpecKey, 0, len(keys))
			// Every third push leaves the upper half of the keys out, so
			// some stay idle long enough to be forgotten and come back.
			from := keys
			if pushes%3 != 0 {
				from = keys[:len(keys)/2]
			}
			for _, k := range from {
				if rng.Intn(3) > 0 {
					subset = append(subset, k)
				}
			}
			rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
			specs := specsFor(subset, day0.Add(time.Duration(step)*time.Second))
			pushes++

			var wantLog []delivery
			wantFrames := map[*serverConn][]delivery{}
			perSpec := map[model.SpecKey]int{}
			scan(watchers, specs, func(w SpecWatcher, spec model.Spec) {
				perSpec[spec.Key()]++
				wantPushes++
				switch w := w.(type) {
				case *jobWatcher:
					wantLog = append(wantLog, delivery{w.id, spec.Key(), spec.UpdatedAt})
				case *serverConn:
					wantFrames[w] = append(wantFrames[w], delivery{0, spec.Key(), spec.UpdatedAt})
				}
			})

			log = log[:0]
			bus.Push(specs)

			if !slices.Equal(log, wantLog) {
				t.Fatalf("step %d: in-process deliveries\n got %v\nwant %v", step, log, wantLog)
			}
			for sc, fc := range conns {
				var got []delivery
				writes := fc.taken()
				// Every frame is its spec's: re-encoded, the frames equal
				// the bytes written.
				var frames []byte
				for _, msg := range framesOf(t, writes) {
					if msg.Type != msgSpec {
						t.Fatalf("step %d: frame %+v", step, msg)
					}
					frames = appendBinaryFrame(frames, wireMsg{Type: msgSpec, Spec: msg.Spec})
					got = append(got, delivery{0, msg.Spec.Key(), msg.Spec.UpdatedAt})
				}
				if written := bytes.Join(writes, nil); !bytes.Equal(written, frames) {
					t.Fatalf("step %d: written frames\n got %x\nwant %x", step, written, frames)
				}
				if !slices.Equal(got, wantFrames[sc]) {
					t.Fatalf("step %d: frames on a connection\n got %v\nwant %v", step, got, wantFrames[sc])
				}
			}
			if got := m.SpecPushes.Value(); got != wantPushes {
				t.Fatalf("step %d: SpecPushes = %v, want %v", step, got, wantPushes)
			}
			if got := m.Watchers.Value(); got != float64(len(watchers)) {
				t.Fatalf("step %d: Watchers = %v, want %d", step, got, len(watchers))
			}
			var wantSpans []trace.Span
			for _, spec := range specs {
				if n := perSpec[spec.Key()]; n > 0 {
					wantSpans = append(wantSpans, trace.Span{
						TraceID: trace.SpecID(string(spec.Job), string(spec.Platform), spec.UpdatedAt).String(),
						Stage:   trace.StageSpecPush,
						Shard:   "shard-0",
						Key:     spec.Key().String(),
						Time:    spec.UpdatedAt,
						Detail:  fmt.Sprintf("%d watchers", n),
					})
				}
			}
			if got := tracer.Recent(len(wantSpans)); len(wantSpans) > 0 && !slices.Equal(got, wantSpans) {
				t.Fatalf("step %d: spec_push spans\n got %+v\nwant %+v", step, got, wantSpans)
			}
		}
	}
	if pushes < steps/4 {
		t.Fatalf("only %d pushes in %d steps", pushes, steps)
	}
	if m.PushErrors.Value() != 0 {
		t.Errorf("PushErrors = %v", m.PushErrors.Value())
	}
}

// TestPushProbeBudget pins what a push may ask, with W = 200 watchers
// and K = 50 keys: everything once, nothing again, K of a watcher whose
// version moved, K of a newcomer, nothing of one that left, W about a
// key never pushed before.
func TestPushProbeBudget(t *testing.T) {
	const W, K = 200, 50
	keys := pushTestKeys(K + 1)
	specs := specsFor(keys[:K], day0)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	var log []delivery
	watchers := make([]*jobWatcher, W)
	for i := range watchers {
		watchers[i] = newJobWatcher(i, model.PlatformA, &log)
		watchers[i].addTask(keys[2*(i%(K/2))].Job, +1)
		bus.Watch(watchers[i])
	}
	// probes returns how many probes each watcher has answered since the
	// last call, as total and as the most any one watcher answered.
	probes := func() (total, most int64) {
		for _, w := range watchers {
			n := w.probes.Swap(0)
			total += n
			most = max(most, n)
		}
		return total, most
	}
	push := func(what string, specs []model.Spec, wantTotal, wantMost int64) {
		t.Helper()
		log = log[:0]
		bus.Push(specs)
		if total, most := probes(); total != wantTotal || most != wantMost {
			t.Errorf("%s: %d probes, at most %d of one watcher; want %d and %d", what, total, most, wantTotal, wantMost)
		}
		var want []delivery
		all := make([]SpecWatcher, len(watchers))
		for i, w := range watchers {
			all[i] = w
		}
		scan(all, specs, func(w SpecWatcher, spec model.Spec) {
			want = append(want, delivery{w.(*jobWatcher).id, spec.Key(), spec.UpdatedAt})
		})
		probes() // the reference's own
		if !slices.Equal(log, want) {
			t.Errorf("%s: %d deliveries, the scan makes %d", what, len(log), len(want))
		}
	}

	push("first push", specs, W*K, K)
	push("identical second push", specs, 0, 0)

	watchers[17].addTask(keys[3].Job, +1) // two more jobs, two bumps, one re-probe
	watchers[17].addTask(keys[4].Job, +1)
	push("after one version bump", specs, K, K)

	newcomer := newJobWatcher(W, model.PlatformA, &log)
	newcomer.addTask(keys[0].Job, +1)
	bus.Watch(newcomer)
	watchers = append(watchers, newcomer)
	push("after one Watch", specs, K, K)
	if n := len(log); n == 0 || log[W/(K/2)].who != W {
		t.Errorf("the newcomer is not served after the watchers before it: %v", log[:min(n, 12)])
	}

	bus.Unwatch(watchers[5])
	watchers = slices.Delete(watchers, 5, 6)
	push("after one Unwatch", specs, 0, 0)

	push("a key never seen", specsFor(keys[K:], day0), W, 1)
	push("the same key again", specsFor(keys[K:], day0), 0, 0)
}

// TestPushAllocBudget is the steady-state allocation budget of one
// pushed spec, end to end in this process: traced on the bus, framed for
// one connection and decoded by that connection's client at no
// allocation, and none per in-process watcher. A count, not a timing.
func TestPushAllocBudget(t *testing.T) {
	keys := pushTestKeys(100)
	specs := specsFor(keys, day0)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(NewMetrics(obs.NewRegistry()))
	bus.SetTrace(trace.NewStore(64))
	for i := 0; i < 20; i++ {
		job := keys[i].Job
		bus.Watch(NewSpecTable(func(k model.SpecKey) bool { return k.Job == job }))
	}
	sc, fc := newFakeServerConn(NewServer(bus))
	if err := sc.subscribe(nil); err != nil {
		t.Fatal(err)
	}
	bus.Watch(sc)
	dec := new(decoder)
	decoded := 0
	push := func() {
		bus.Push(specs)
		for _, w := range fc.taken() {
			for len(w) > 0 {
				n := binHeaderLen + int(binary.BigEndian.Uint32(w[2:binHeaderLen]))
				if _, err := dec.decode(w[binHeaderLen:n]); err != nil {
					t.Fatal(err)
				}
				w = w[n:]
				decoded++
			}
		}
	}
	push() // builds the index, the buffers and the client's name table
	const runs = 20
	perPush := testing.AllocsPerRun(runs, push)
	// fakeConn keeps a copy of every write; that is the test's, not the
	// push's: one per write, a handful per push.
	if perSpec := perPush / float64(len(specs)); perSpec > 0.1 {
		t.Errorf("a pushed spec costs %.2f allocations, budget 0 (0.1 with fakeConn's copies)", perSpec)
	}
	if want := (runs + 2) * len(specs); decoded != want {
		t.Errorf("decoded %d spec frames, want %d", decoded, want)
	}
}

// TestPushForgetsIdleKeys: a key left out of idlePushes pushes in a row
// stops costing a changed watcher a probe, and is a new key when it
// comes back.
func TestPushForgetsIdleKeys(t *testing.T) {
	keys := pushTestKeys(4)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	var log []delivery
	w := newJobWatcher(0, model.PlatformA, &log)
	w.addTask(keys[0].Job, +1)
	w.addTask(keys[2].Job, +1)
	bus.Watch(w)
	bus.Push(specsFor(keys, day0))
	for i := 0; i < 2*idlePushes; i++ {
		bus.Push(specsFor(keys[:2], day0))
	}
	if n := len(bus.index.keys); n != 2 {
		t.Fatalf("index holds %d keys after %d pushes of 2, want 2", n, 2*idlePushes)
	}
	w.probes.Store(0)
	w.addTask(keys[2].Job, -1)
	w.addTask(keys[2].Job, +1)
	log = log[:0]
	bus.Push(specsFor(keys, day0))
	if got := w.probes.Load(); got != 2+2 {
		t.Errorf("%d probes, want 2 for the version that moved and 2 for the keys that came back", got)
	}
	if len(log) != 2 || log[0].key != keys[0] || log[1].key != keys[2] {
		t.Errorf("deliveries %v", log)
	}
}

// TestSubscribeFloodCostsOneReprobe: however many subscribe frames a
// peer sends between two pushes, the next push asks its connection about
// each indexed key once.
func TestSubscribeFloodCostsOneReprobe(t *testing.T) {
	const K, frames = 50, 10000
	keys := pushTestKeys(K)
	specs := specsFor(keys, day0)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	sc, fc := newFakeServerConn(NewServer(bus))
	counted := &probeCounter{SpecWatcher: sc}
	bus.Watch(counted)
	bus.Push(specs)
	if counted.probes != K || len(fc.taken()) != 0 {
		t.Fatalf("first push: %d probes, want %d, and nothing sent", counted.probes, K)
	}
	for i := 0; i < frames; i++ {
		sub := []model.SpecKey{keys[i%K], {Job: model.JobName("elsewhere-" + strconv.Itoa(i)), Platform: model.PlatformA}}
		if err := sc.subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	counted.probes = 0
	bus.Push(specs)
	if counted.probes != K {
		t.Errorf("push after %d subscribe frames: %d probes, want %d", frames, counted.probes, K)
	}
	if got := len(framesOf(t, fc.taken())); got != K {
		t.Errorf("%d spec frames sent, want %d", got, K)
	}
	counted.probes = 0
	bus.Push(specs)
	if counted.probes != 0 {
		t.Errorf("push with nothing changed: %d probes", counted.probes)
	}
}

// probeCounter counts the probes of the watcher it wraps. Only Push
// calls it, one call at a time.
type probeCounter struct {
	SpecWatcher
	probes int
}

func (p *probeCounter) WantSpec(key model.SpecKey) bool {
	p.probes++
	return p.SpecWatcher.WantSpec(key)
}

func (p *probeCounter) flushSpecs() {
	if f, ok := p.SpecWatcher.(specFlusher); ok {
		f.flushSpecs()
	}
}

// TestSubscriptionCapOverTCP: the subscribe frame that takes a
// connection past maxSubscribedKeys distinct keys is refused like any
// other hostile frame — counted as a decode error, logged, and the
// connection dropped — while re-subscribing to keys already held is
// free.
func TestSubscriptionCapOverTCP(t *testing.T) {
	addr, bus, m, events := wireTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A short platform name keeps half the cap inside one frame.
	batch := func(from, n int) []byte {
		sub := make([]model.SpecKey, n)
		for i := range sub {
			sub[i] = model.SpecKey{Job: model.JobName("k" + strconv.Itoa(from+i)), Platform: "p"}
		}
		return appendBinaryFrame(nil, wireMsg{Type: msgSubscribe, Jobs: sub})
	}
	const half = maxSubscribedKeys / 2
	stream := append(batch(0, half), batch(half, half)...) // exactly the cap
	stream = append(stream, batch(0, half)...)             // all held already
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three subscribe frames", func() bool { return m.MessagesIn.Value() == 3 })
	if m.ConnectedAgents.Value() != 1 || len(events.Recent(0, "wire_error")) != 0 {
		t.Fatalf("a subscription at the cap dropped the connection: %v", events.Recent(0, "wire_error"))
	}
	table := NewSpecTable(nil)
	bus.Watch(table)
	bus.Push(specsFor([]model.SpecKey{{Job: "k7", Platform: "p"}}, day0))
	waitFor(t, "the push to the subscriber", func() bool { return m.MessagesOut.Value() == 1 })

	// The write may fail partway once the server has dropped us.
	_, _ = conn.Write(batch(maxSubscribedKeys, 1))
	waitFor(t, "decode accounting and connection drop", func() bool {
		return m.WireErrors.With("decode").Value() == 1 && m.ConnectedAgents.Value() == 0
	})
	if data := oneWireError(t, events, "server", "decode"); !bytes.Contains([]byte(data["error"]), []byte(strconv.Itoa(maxSubscribedKeys))) {
		t.Errorf("wire_error does not name the cap: %q", data["error"])
	}
	waitFor(t, "unwatch", func() bool { return bus.NumWatchers() == 1 })
}

// watchedListener hands the server connections whose writes the test
// can count, read back and stall.
type watchedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*watchedConn
}

func (l *watchedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &watchedConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, wc)
	l.mu.Unlock()
	return wc, nil
}

// only waits for the first connection and returns it.
func (l *watchedListener) only(t *testing.T) *watchedConn {
	t.Helper()
	waitFor(t, "a server-side connection", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.conns) > 0
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[0]
}

// watchedConn is a real connection with fakeConn's send side in front:
// writes are kept and passed on; with stall set they fail as timeouts.
type watchedConn struct {
	net.Conn
	fakeConn
}

func (c *watchedConn) Write(p []byte) (int, error) {
	if _, err := c.fakeConn.Write(p); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *watchedConn) Close() error {
	_ = c.fakeConn.Close()
	return c.Conn.Close()
}

func (c *watchedConn) SetWriteDeadline(t time.Time) error { return c.Conn.SetWriteDeadline(t) }

// watchedServer is wireTestServer on a watchedListener.
func watchedServer(t *testing.T) (*Server, *Bus, *Metrics, *watchedListener) {
	t.Helper()
	m := NewMetrics(obs.NewRegistry())
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	bus.SetMetrics(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := &watchedListener{Listener: ln}
	srv := NewServer(bus)
	srv.serve(wl)
	t.Cleanup(func() { srv.Close() })
	return srv, bus, m, wl
}

// TestPushCoalescesWrites: a 2,000-spec push to a subscribe-all
// connection leaves the server in at most 10 writes, each made of whole
// frames, all 2,000 in spec order, counted frame by frame.
func TestPushCoalescesWrites(t *testing.T) {
	_, bus, m, wl := watchedServer(t)
	var got collectSpecs
	client := dialTest(t, wl.Addr().String(), got.add)
	if err := client.Subscribe(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hello and subscribe", func() bool { return m.MessagesIn.Value() == 2 && m.MessagesOut.Value() == 1 })
	sconn := wl.only(t)
	sconn.taken() // the hello answer

	keys := pushTestKeys(2000)
	specs := specsFor(keys, day0.Add(time.Hour))
	bus.Push(specs)
	writes := sconn.taken()
	if len(writes) == 0 || len(writes) > 10 {
		t.Errorf("%d writes for a %d-spec push, want 1 to 10", len(writes), len(specs))
	}
	frames := framesOf(t, writes)
	if len(frames) != len(specs) {
		t.Fatalf("%d frames written, want %d", len(frames), len(specs))
	}
	for i, msg := range frames {
		if msg.Type != msgSpec || msg.Spec != specs[i] {
			t.Fatalf("frame %d is %+v, want spec %+v", i, msg, specs[i])
		}
	}
	if got := m.MessagesOut.Value(); got != 1+float64(len(specs)) {
		t.Errorf("MessagesOut = %v, want the hello and %d specs", got, len(specs))
	}
	if m.SpecPushes.Value() != float64(len(specs)) || m.PushErrors.Value() != 0 {
		t.Errorf("SpecPushes = %v, PushErrors = %v", m.SpecPushes.Value(), m.PushErrors.Value())
	}
	waitFor(t, "the client to read them all", func() bool { return got.count() == len(specs) })
	got.mu.Lock()
	defer got.mu.Unlock()
	if !slices.Equal(got.specs, specs) {
		t.Error("the client saw other specs, or another order, than were pushed")
	}
}

// testClient is a test's connection to a server: a connected Redialer
// that never re-dials, so a connection the server drops stays dropped.
type testClient struct{ *Redialer }

// noRedial paces a Redialer past any test's end.
func noRedial(int) time.Duration { return time.Hour }

func dialTest(t testing.TB, addr string, onSpec func(model.Spec)) testClient {
	t.Helper()
	rd := newRedialer(addr, onSpec, noRedial)
	t.Cleanup(func() { rd.Close() })
	waitFor(t, "connect", rd.Connected)
	return testClient{rd}
}

// send writes one frame on the live connection.
func (c testClient) send(msg wireMsg) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return errors.New("not connected")
	}
	return conn.send(msg)
}

// TestHelloBehindBufferedSpecs: a hello answered while spec frames wait
// in the send buffer goes out behind them, in one write, and none is
// lost.
func TestHelloBehindBufferedSpecs(t *testing.T) {
	srv, _, m, wl := watchedServer(t)
	var got collectSpecs
	client := dialTest(t, wl.Addr().String(), got.add)
	waitFor(t, "hello", func() bool { return m.MessagesOut.Value() == 1 })
	sconn := wl.only(t)
	sconn.taken()
	srv.mu.Lock()
	var sc *serverConn
	for c := range srv.conns {
		sc = c
	}
	srv.mu.Unlock()

	specs := specsFor(pushTestKeys(3), day0)
	for _, spec := range specs {
		sc.DeliverSpec(spec) // as Push does, short of the flush
	}
	if w := sconn.taken(); len(w) != 0 || m.MessagesOut.Value() != 1 {
		t.Fatalf("%d writes before any flush, MessagesOut %v", len(w), m.MessagesOut.Value())
	}
	if err := client.send(wireMsg{Type: msgHello}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second hello's answer", func() bool { return m.MessagesOut.Value() == 5 })
	writes := sconn.taken()
	if len(writes) != 1 {
		t.Errorf("%d writes, want the buffered specs and the hello in one", len(writes))
	}
	var types []byte
	for _, msg := range framesOf(t, writes) {
		types = append(types, msg.Type)
	}
	if !slices.Equal(types, []byte{msgSpec, msgSpec, msgSpec, msgHello}) {
		t.Errorf("frame types written: %v", types)
	}
	waitFor(t, "the client to read the specs", func() bool { return got.count() == len(specs) })
	sc.flushSpecs()
	if w := sconn.taken(); len(w) != 0 {
		t.Errorf("a flush with nothing buffered wrote %d times", len(w))
	}
}

// TestStalledPeerCostsOneWrite: a push to a connection whose peer has
// stopped reading waits out one write deadline, not one per spec or per
// flush: the first write that fails closes the connection, every later
// one fails at once, and all the specs the connection did not get are
// counted. A healthy connection registered behind it gets everything.
func TestStalledPeerCostsOneWrite(t *testing.T) {
	_, bus, m, wl := watchedServer(t)
	stuck := dialTest(t, wl.Addr().String(), nil)
	if err := stuck.Subscribe(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first connection", func() bool { return m.MessagesIn.Value() == 2 })
	var got collectSpecs
	healthy := dialTest(t, wl.Addr().String(), got.add)
	if err := healthy.Subscribe(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second connection", func() bool { return m.MessagesIn.Value() == 4 && m.MessagesOut.Value() == 2 })
	// A first push while both read, so the index knows both want every
	// key: the second is not cut short by a WantSpec that sees the death.
	specs := specsFor(pushTestKeys(2000), day0)
	bus.Push(specs)
	waitFor(t, "the first push", func() bool { return got.count() == len(specs) })
	if got := m.MessagesOut.Value(); got != 2+2*float64(len(specs)) || m.PushErrors.Value() != 0 {
		t.Fatalf("first push: MessagesOut = %v, PushErrors = %v", got, m.PushErrors.Value())
	}

	sconn := wl.only(t)
	sconn.mu.Lock()
	sconn.stall = true
	sconn.mu.Unlock()
	bus.Push(specs)
	sconn.mu.Lock()
	stalled := sconn.stalled
	sconn.mu.Unlock()
	if stalled != 1 {
		t.Errorf("%d writes waited for the stalled peer, want 1", stalled)
	}
	if got := m.PushErrors.Value(); got != float64(len(specs)) {
		t.Errorf("PushErrors = %v, want %d: every spec the peer did not get", got, len(specs))
	}
	if got := m.MessagesOut.Value(); got != 2+3*float64(len(specs)) {
		t.Errorf("MessagesOut = %v, want the hellos, the first push and %d specs to the healthy peer", got, len(specs))
	}
	waitFor(t, "the healthy peer's specs", func() bool { return got.count() == 2*len(specs) })
	waitFor(t, "the stalled connection to be unwatched", func() bool { return bus.NumWatchers() == 1 })
	bus.Push(specs[:1])
	if got := m.PushErrors.Value(); got != float64(len(specs)) {
		t.Errorf("PushErrors = %v after a push without the dead connection", got)
	}
}

// TestPushConcurrentChurn hammers Watch, Unwatch, subscribe and task
// churn while pushes run (for the race detector), then checks a
// quiescent push against the scan.
func TestPushConcurrentChurn(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	keys := pushTestKeys(30)
	specs := specsFor(keys, day0)
	bus := NewBus(core.NewSpecBuilder(core.DefaultParams()))
	srv := NewServer(bus)
	var log []delivery // appended under pushMu's serialisation of DeliverSpec, read after the hammering

	var mu sync.Mutex // guards watchers, the registration order as the test knows it
	var watchers []SpecWatcher
	watch := func(w SpecWatcher) {
		mu.Lock()
		defer mu.Unlock()
		bus.Watch(w)
		watchers = append(watchers, w)
	}
	stable := make([]*jobWatcher, 8)
	for i := range stable {
		stable[i] = newJobWatcher(i, model.PlatformA, &log)
		watch(stable[i])
	}
	sc, fc := newFakeServerConn(srv)
	watch(sc)

	var wg sync.WaitGroup
	hammer := func(seed int64, f func(rng *rand.Rand, i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				f(rng, i)
			}
		}()
	}
	hammer(1, func(rng *rand.Rand, i int) { // comers and goers
		w := newJobWatcher(100+i, model.PlatformA, &log)
		w.addTask(keys[2*rng.Intn(len(keys)/2)].Job, +1)
		watch(w)
		if i%2 == 0 {
			mu.Lock()
			bus.Unwatch(w)
			watchers = slices.DeleteFunc(watchers, func(have SpecWatcher) bool { return have == SpecWatcher(w) })
			mu.Unlock()
		}
	})
	hammer(2, func(rng *rand.Rand, i int) { // task churn
		delta := +1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		stable[rng.Intn(len(stable))].addTask(keys[2*rng.Intn(len(keys)/2)].Job, delta)
	})
	hammer(3, func(rng *rand.Rand, i int) { // subscribe frames
		if err := sc.subscribe([]model.SpecKey{keys[rng.Intn(len(keys))]}); err != nil {
			t.Error(err)
		}
	})
	hammer(4, func(rng *rand.Rand, i int) { bus.Push(specs) })
	hammer(5, func(rng *rand.Rand, i int) { bus.Push(specs[:1+rng.Intn(len(specs))]) })
	wg.Wait()

	log = log[:0]
	fc.taken()
	bus.Push(specs)
	var wantLog, wantFrames, gotFrames []delivery
	scan(watchers, specs, func(w SpecWatcher, spec model.Spec) {
		if jw, ok := w.(*jobWatcher); ok {
			wantLog = append(wantLog, delivery{jw.id, spec.Key(), spec.UpdatedAt})
		} else {
			wantFrames = append(wantFrames, delivery{0, spec.Key(), spec.UpdatedAt})
		}
	})
	for _, msg := range framesOf(t, fc.taken()) {
		gotFrames = append(gotFrames, delivery{0, msg.Spec.Key(), msg.Spec.UpdatedAt})
	}
	if !slices.Equal(log, wantLog) || !slices.Equal(gotFrames, wantFrames) {
		t.Errorf("quiescent push: %d deliveries and %d frames, the scan makes %d and %d",
			len(log), len(gotFrames), len(wantLog), len(wantFrames))
	}
	if len(wantLog) == 0 || len(wantFrames) == 0 {
		t.Errorf("the hammering left nothing to deliver: %d deliveries, %d frames", len(wantLog), len(wantFrames))
	}
}
