package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// daemonConfig sizes one daemon-path workload: the cmd/cpi2aggregator
// stack hosted in this process, fed over loopback TCP by agent-side
// chains wired the way cmd/cpi2agent wires them. No machine is
// simulated; the samples come from the seeded generator.
type daemonConfig struct {
	name string
	gen  genConfig
	// watchers is the number of in-process spec tables, each filtered to
	// one job, standing in for a fleet of agents at push time.
	watchers int
	// recomputeEvery is the number of rounds between spec refreshes
	// (Recompute, Push, wait for the fan-out).
	recomputeEvery int
	// checkpointRounds is the fixed amount of measured work after which
	// the live heap is taken; the run then keeps going until its time
	// is up.
	checkpointRounds int
}

var (
	daemonIngestConfig = daemonConfig{
		name:             "daemon_ingest",
		gen:              genConfig{machines: 4000, batch: 16, jobs: 500, zipf: 1.2, platformB: 0.3, rounds: 4},
		recomputeEvery:   60,
		checkpointRounds: 60,
	}
	daemonSpecPushConfig = daemonConfig{
		name:             "daemon_specpush",
		gen:              genConfig{machines: 1250, batch: 16, jobs: 1000, platformB: 0.5, rounds: 4},
		watchers:         5000,
		recomputeEvery:   1,
		checkpointRounds: 30,
	}
)

// daemonParams are the aggregator's spec parameters: MinSamplesPerTask
// 1 lets a key with enough tasks turn robust in the untimed round, so
// that round already pushes what the measured ones will.
var daemonParams = core.Params{SpecRecomputeInterval: time.Hour, MinSamplesPerTask: 1}

// waitLimit bounds every wait on the program under test; a lost sample
// or spec must fail the run, not hang it.
const waitLimit = 20 * time.Second

// pollEvery is how often the closed loop looks at Bus.Stats or the
// subscribers' counters while it waits.
const pollEvery = 50 * time.Microsecond

// subscriber is the agent side of one TCP connection's spec stream.
type subscriber struct {
	seen atomic.Int64 // spec frames received, ever
	// want is the count the round is waiting for; the frame that reaches
	// it pokes reached, so the fan-out wait ends when the last spec
	// lands and not a poll interval later.
	want    atomic.Int64
	reached chan struct{}
	mu      sync.Mutex
	specs   map[model.SpecKey]model.Spec
}

func newSubscriber() *subscriber {
	// One token is enough: each round takes it before the next sets want.
	return &subscriber{reached: make(chan struct{}, 1), specs: make(map[model.SpecKey]model.Spec)}
}

func (s *subscriber) onSpec(spec model.Spec) {
	s.mu.Lock()
	s.specs[spec.Key()] = spec
	s.mu.Unlock()
	if s.seen.Add(1) == s.want.Load() {
		s.reached <- struct{}{}
	}
}

// chain is one agent-side publishing chain: Spooler → Redialer → TCP,
// subscribed to every spec.
type chain struct {
	spool   *pipeline.Spooler
	redial  *pipeline.Redialer
	metrics *pipeline.Metrics
	sub     *subscriber
}

// stack is the aggregator plus its agent-side chains.
type stack struct {
	cfg       daemonConfig
	bus       *pipeline.Bus
	metrics   *pipeline.Metrics
	validator *core.SampleValidator
	server    *pipeline.Server
	chains    []*chain
	tables    []*pipeline.SpecTable
	ref       *reference
	gen       *generated
	// published counts samples handed to the chains; pushed counts spec
	// frames each TCP subscriber should have seen; round numbers the
	// synthetic recompute clock.
	published, pushed int64
	rounds            int
}

// newStack listens, dials, subscribes and runs one untimed round with a
// spec refresh, after which every connection has negotiated its wire
// format and every layer has allocated its buffers.
func newStack(cfg daemonConfig, g *generated, o *outcome) (*stack, error) {
	st := &stack{cfg: cfg, gen: g, ref: newReference(g, daemonParams)}

	// The aggregator, as cmd/cpi2aggregator assembles it.
	reg := obs.NewRegistry()
	builder := core.NewSpecBuilder(daemonParams)
	builder.SetMetrics(core.NewMetrics(reg))
	st.bus = pipeline.NewBus(builder)
	st.metrics = pipeline.NewMetrics(reg)
	st.bus.SetMetrics(st.metrics)
	st.bus.SetTrace(trace.NewStore(0))
	st.validator = core.NewSampleValidator("aggregator", 256)
	st.validator.Metrics = core.NewMetrics(reg)
	st.bus.SetValidator(st.validator)
	events := obs.NewEventLog(4096, nil)
	st.server = pipeline.NewServer(st.bus)
	st.server.SetEvents(events)
	addr, err := st.server.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	for i := 0; i < cfg.watchers; i++ {
		job := g.keys[i%len(g.keys)].Job
		t := pipeline.NewSpecTable(func(k model.SpecKey) bool { return k.Job == job })
		st.tables = append(st.tables, t)
		st.bus.Watch(t)
	}

	// The agent-side chains, as cmd/cpi2agent assembles them.
	for i := 0; i < loadWidth(); i++ {
		ch := &chain{sub: newSubscriber()}
		ch.metrics = pipeline.NewMetrics(obs.NewRegistry())
		ch.redial = pipeline.NewRedialer(addr, ch.sub.onSpec)
		ch.redial.SetMetrics(ch.metrics)
		ch.redial.SetEvents(events)
		ch.spool = pipeline.NewSpooler(ch.redial, pipeline.SpoolConfig{})
		ch.spool.SetMetrics(ch.metrics)
		ch.spool.Start()
		ch.redial.SetOnConnect(ch.spool.Kick)
		st.chains = append(st.chains, ch)
		if err := ch.redial.Subscribe(); err != nil {
			st.close()
			return nil, err
		}
	}
	for _, ch := range st.chains {
		if err := waitFor(ch.redial.Connected); err != nil {
			st.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
	}
	// Let the wire negotiation finish before any sample is sent: a batch
	// published before the server's hello ack arrives goes out as JSON,
	// and how many do is a race that made set-up take 110 to 260 ms.
	// The server counts the ack it wrote to each connection; the clients'
	// read loops then need a moment to see it.
	acked := func() bool { return st.metrics.MessagesOut.Value() >= float64(len(st.chains)) }
	if err := waitFor(acked); err != nil {
		st.close()
		return nil, fmt.Errorf("wire negotiation: %w", err)
	}
	time.Sleep(time.Millisecond)
	// The untimed round: every layer allocates its buffers, and the
	// first specs reach every subscriber.
	if _, err := st.round(nil, 0, true, o); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	for _, ch := range st.chains {
		_ = ch.spool.Close()
		_ = ch.redial.Close()
	}
	_ = st.server.Close()
}

// waitFor polls cond until it holds or waitLimit passes.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("gave up after %v", waitLimit)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// roundTimes are one round's phase boundaries, as durations.
type roundTimes struct {
	publish   time.Duration // first Publish → last Publish returned
	publishNs int64         // time inside Publish calls, summed over workers
	drain     time.Duration // last Publish returned → every sample folded
	recompute time.Duration
	push      time.Duration
	fanout    time.Duration // Push returned → last subscriber's last spec
	total     time.Duration
	win       window // the whole round, reference checks excluded
	refreshed bool
	specs     int
	pushMem   memCounters // allocations during the Push call
}

// round publishes every machine's next batch through the chains, waits
// until the bus has folded them all, and — when refresh is set —
// recomputes, pushes and waits for the fan-out. Spans go to tr (which
// may be nil). Checks against the reference happen after the clock
// stops and are not part of the returned times.
func (st *stack) round(tr *tracer, id int, refresh bool, o *outcome) (roundTimes, error) {
	var rt roundTimes
	g := st.gen
	batches := g.rounds[st.rounds%len(g.rounds)]
	st.ref.published(st.rounds % len(g.rounds))
	st.rounds++
	nSamples := int64(g.cfg.samplesPerRound())
	target := st.published + nSamples
	st.published = target

	meter := startWindow()
	root := tr.begin("round", -1, id)
	t0 := time.Now()
	sp := tr.begin("pipeline.client_publish", root, id)
	var wg sync.WaitGroup
	var inPublish atomic.Int64
	per := (len(batches) + len(st.chains) - 1) / len(st.chains)
	for w, ch := range st.chains {
		lo, hi := w*per, (w+1)*per
		if hi > len(batches) {
			hi = len(batches)
		}
		wg.Add(1)
		go func(ch *chain, mine [][]model.Sample) {
			defer wg.Done()
			began := time.Now()
			for _, b := range mine {
				// The spool turns a send failure into a replay, so the
				// error shows up in its counters, judged at the end.
				_ = ch.spool.Publish(b)
			}
			inPublish.Add(int64(time.Since(began)))
		}(ch, batches[lo:hi])
	}
	wg.Wait()
	tr.end(sp, int(nSamples))
	t1 := time.Now()
	rt.publish, rt.publishNs = t1.Sub(t0), inPublish.Load()

	sp = tr.begin("pipeline.server_drain_wait", root, id)
	err := waitFor(func() bool {
		recv, drop := st.bus.Stats()
		return recv+drop >= target
	})
	tr.end(sp, int(nSamples))
	t2 := time.Now()
	rt.drain = t2.Sub(t1)
	if err != nil {
		recv, drop := st.bus.Stats()
		return rt, fmt.Errorf("round %d: %d of %d samples folded (%d dropped): %w", id, recv, target, drop, err)
	}

	var pushedSpecs []model.Spec
	var now time.Time
	if refresh {
		rt.refreshed = true
		now = genEpoch.Add(time.Duration(st.rounds) * time.Minute)
		sp = tr.begin("core.spec_recompute", root, id)
		pushedSpecs = st.bus.Builder().Recompute(now)
		tr.end(sp, len(pushedSpecs))
		t3 := time.Now()
		rt.recompute, rt.specs = t3.Sub(t2), len(pushedSpecs)

		st.pushed += int64(len(pushedSpecs))
		for _, ch := range st.chains {
			ch.sub.want.Store(st.pushed)
		}
		mem0 := readMemCounters()
		t3 = time.Now()
		sp = tr.begin("pipeline.push_call", root, id)
		st.bus.Push(pushedSpecs)
		tr.end(sp, len(pushedSpecs))
		t4 := time.Now()
		rt.pushMem = readMemCounters().since(mem0)
		rt.push = t4.Sub(t3)

		t4 = time.Now()
		sp = tr.begin("pipeline.fanout_wait", root, id)
		if len(pushedSpecs) > 0 {
			gaveUp := time.After(waitLimit)
			for i, ch := range st.chains {
				select {
				case <-ch.sub.reached:
				case <-gaveUp:
					return rt, fmt.Errorf("round %d: subscriber %d saw %d of %d specs after %v",
						id, i, ch.sub.seen.Load(), st.pushed, waitLimit)
				}
			}
		}
		tr.end(sp, len(pushedSpecs)*len(st.chains))
		rt.fanout = time.Since(t4)
	}
	tr.end(root, int(nSamples))
	rt.win = meter.stop(nSamples)
	rt.total = rt.publish + rt.drain + rt.recompute + rt.push + rt.fanout

	o.attempt(int64(len(batches)) + nSamples)
	if refresh {
		st.checkSpecs(pushedSpecs, now, o)
	}
	return rt, nil
}

// checkSpecs compares what the aggregator built and what every TCP
// subscriber received with the reference.
func (st *stack) checkSpecs(pushed []model.Spec, now time.Time, o *outcome) {
	wantAll := st.ref.recompute(now)
	wantPushed := st.ref.robust(wantAll)
	o.attempt(int64(len(wantAll) + len(wantPushed)*len(st.chains)))

	compare := func(who string, got, want []model.Spec) {
		if len(got) != len(want) {
			o.fail(int64(abs(len(got)-len(want))), "%s holds %d specs, want %d", who, len(got), len(want))
			return
		}
		for i := range want {
			if diff := specMismatch(got[i], want[i]); diff != "" {
				o.fail(1, "%s: %s", who, diff)
			}
		}
	}
	compare("aggregator table", st.bus.Builder().Specs(), wantAll)
	compare("pushed set", pushed, wantPushed)
	for i, ch := range st.chains {
		ch.sub.mu.Lock()
		got := make([]model.Spec, 0, len(ch.sub.specs))
		for _, s := range ch.sub.specs {
			got = append(got, s)
		}
		ch.sub.mu.Unlock()
		sortSpecs(got)
		compare(fmt.Sprintf("subscriber %d", i), got, wantPushed)
	}
}

func sortSpecs(specs []model.Spec) {
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Job != specs[j].Job {
			return specs[i].Job < specs[j].Job
		}
		return specs[i].Platform < specs[j].Platform
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkConservation requires every published sample to be accounted
// for — folded or counted as dropped — with nothing dropped,
// quarantined, misrouted, spooled or lost on the way, and every
// in-process watcher holding exactly its job's specs.
func (st *stack) checkConservation(o *outcome) {
	recv, drop := st.bus.Stats()
	if recv+drop != st.published {
		o.fail(int64(abs(int(st.published-recv-drop))), "folded %d + dropped %d ≠ published %d", recv, drop, st.published)
	}
	o.fail(drop, "%d samples dropped by the bus (%d of them quarantined)", drop, st.validator.Quarantine.Total())
	o.fail(int64(st.metrics.Misrouted.Value()), "%v samples misrouted", st.metrics.Misrouted.Value())
	o.fail(int64(st.metrics.PushErrors.Value()), "%v spec pushes failed", st.metrics.PushErrors.Value())
	for i, ch := range st.chains {
		s := ch.spool.Stats()
		o.fail(s.Dropped, "chain %d: %d batches dropped from the spool", i, s.Dropped)
		o.fail(int64(s.Batches), "chain %d: %d batches still spooled", i, s.Batches)
		o.fail(int64(ch.metrics.DroppedBatches.Value()), "chain %d: %v Publish errors", i, ch.metrics.DroppedBatches.Value())
		o.fail(int64(ch.metrics.Reconnects.Value()), "chain %d: %v reconnects", i, ch.metrics.Reconnects.Value())
	}
	if len(st.tables) > 0 {
		pushedKeys := make(map[model.JobName]int)
		for _, s := range st.chains[0].sub.specsSnapshot() {
			pushedKeys[s.Job]++
		}
		o.attempt(int64(len(st.tables)))
		for i, t := range st.tables {
			job := st.gen.keys[i%len(st.gen.keys)].Job
			if t.Len() != pushedKeys[job] {
				o.fail(1, "watcher %d (%s) holds %d specs, want %d", i, job, t.Len(), pushedKeys[job])
			}
		}
	}
}

func (s *subscriber) specsSnapshot() []model.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.Spec, 0, len(s.specs))
	for _, sp := range s.specs {
		out = append(out, sp)
	}
	return out
}

// daemonWindow is what the measured rounds of a daemon run yield.
type daemonWindow struct {
	rounds  []roundTimes
	samples int64
	// heapMB and rssMB are the live heap and the resident-set high-water
	// mark at the checkpoint.
	heapMB, rssMB float64
	rssErr        error
	allocs        memCounters
	// bytesIn and bytesOut are the server's wire counters over the
	// window; specFrames the spec frames it sent.
	bytesIn, bytesOut float64
	specFrames        int64
}

// measure runs rounds back to back — a closed loop with loadWidth
// publishers — for at least cfg.checkpointRounds and then until budget
// has elapsed. With a tracer, odd rounds run with spans off, so the
// same run also yields the tracing overhead.
func (st *stack) measure(budget time.Duration, tr *tracer, o *outcome) (*daemonWindow, error) {
	w := &daemonWindow{}
	in0, out0, pushed0 := st.metrics.BytesIn.Value(), st.metrics.BytesOut.Value(), st.pushed
	began := time.Now()
	for r := 0; r < st.cfg.checkpointRounds || time.Since(began) < budget; r++ {
		rtr := tr
		if r%2 == 1 {
			rtr = nil
		}
		refresh := (r+1)%st.cfg.recomputeEvery == 0
		mem0 := readMemCounters()
		rt, err := st.round(rtr, r, refresh, o)
		if err != nil {
			return nil, err
		}
		w.allocs.add(readMemCounters().since(mem0))
		w.rounds = append(w.rounds, rt)
		w.samples += int64(st.gen.cfg.samplesPerRound())
		if r+1 == st.cfg.checkpointRounds {
			w.rssMB, w.rssErr = peakRSSMB()
			w.heapMB = liveHeapMB()
		}
	}
	w.bytesIn = st.metrics.BytesIn.Value() - in0
	w.bytesOut = st.metrics.BytesOut.Value() - out0
	w.specFrames = (st.pushed - pushed0) * int64(len(st.chains))
	return w, nil
}

// runDaemon runs a daemon workload: with tr nil it reports the
// end-to-end metrics, otherwise the per-layer ones.
func runDaemon(cfg daemonConfig, seed int64, budget time.Duration, ms *metricSet, o *outcome, tr *tracer) error {
	g := generate(cfg.gen, seed)
	meter := startWindow()
	st, err := newStack(cfg, g, o)
	if err != nil {
		return err
	}
	setups := []window{meter.stop(0)}
	w, err := st.measure(budget, tr, o)
	if err != nil {
		st.close()
		return err
	}
	// One last untimed refresh, so the samples folded since the last
	// push are checked against the reference too.
	if _, err := st.round(nil, -1, true, o); err != nil {
		st.close()
		return err
	}
	st.checkConservation(o)
	st.close()
	o.setDigest("samples_per_round", fmt.Sprint(g.cfg.samplesPerRound()))
	o.setDigest("spec_keys", fmt.Sprint(len(g.keys)))
	o.setDigest("generated_round0_sha256", hashJSON(g.rounds[0]))

	if tr != nil {
		return daemonLayerMetrics(cfg, g, w, ms, o)
	}

	if w.rssErr != nil {
		return w.rssErr
	}
	ms.set("peak_rss_mb", w.rssMB, 0)
	ms.set("live_heap_mb", w.heapMB, 0)
	wins := make([]window, len(w.rounds))
	for i, rt := range w.rounds {
		wins[i] = rt.win
	}
	costs := setWindowMetrics(ms, o, wins)
	o.windows = wins

	// Set-up again, four times, for a median; each stack is torn down at
	// once.
	for i := 0; i < 4; i++ {
		meter := startWindow()
		again, err := newStack(cfg, g, o)
		if err != nil {
			return err
		}
		setups = append(setups, meter.stop(0))
		again.close()
	}
	setSetupMetric(ms, setups, costs)
	return nil
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
