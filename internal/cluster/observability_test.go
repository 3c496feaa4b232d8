package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// obsRun drives the end-to-end incident harness (quiet service, warm
// specs, antagonist lands, CPI² caps it) with a shared registry so
// every metric family the system exports ends up rendered.
func obsRun(t *testing.T, reg *obs.Registry) *Cluster {
	t.Helper()
	c := New(Config{Seed: 4, Machines: 2, CPUsPerMachine: 16,
		Params:   core.Params{MinSamplesPerTask: 5},
		Registry: reg,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", 6, 1.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 2, 8, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(15 * time.Minute)
	return c
}

// TestMetricNameLint scrapes the full registry text after an
// end-to-end run — every agent, core, and pipeline family plus the
// admin server's uptime gauge — and holds it to the naming contract:
// cpi2_ prefix, _total on counters, _seconds on time-valued families,
// no duplicate registrations.
func TestMetricNameLint(t *testing.T) {
	reg := obs.NewRegistry()
	c := obsRun(t, reg)
	if len(c.Incidents()) == 0 {
		t.Fatal("no incidents: the run exercised nothing worth linting")
	}
	// Constructing the admin server registers cpi2_uptime_seconds, so
	// the daemon-only families are linted too.
	obs.NewAdminServer(reg, nil)
	text := reg.Render()
	// The lint must see real input: the SLI histograms and at least one
	// counter family have to be present, or a green lint proves nothing.
	for _, want := range []string{
		"cpi2_sample_to_spec_seconds", "cpi2_spec_staleness_seconds",
		"cpi2_detect_to_cap_seconds", "cpi2_uptime_seconds",
		"cpi2_caps_applied_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered registry is missing %s", want)
		}
	}
	for _, finding := range obs.LintMetricsText(text) {
		t.Errorf("metric lint: %s", finding)
	}
}

// cpi2agentOnly names the families cmd/cpi2agent registers itself; no
// library code does, so no run here renders them.
var cpi2agentOnly = []string{"cpi2_agent_tick_seconds"}

// TestReadmeListsEveryMetricFamily diffs the metric names README.md
// documents against the families an instrumented system renders: the
// end-to-end run's registry plus a pipeline metric set and the admin
// server's uptime gauge — exactly 39 — and the cpi2agent-only families.
// A family added without a README row fails here, and so does a row
// whose family is gone.
func TestReadmeListsEveryMetricFamily(t *testing.T) {
	reg := obs.NewRegistry()
	obsRun(t, reg)
	obs.NewAdminServer(reg, nil)
	// A labelled family renders only once it has a series, and a clean
	// run has no wire error and no quarantined sample: name one series in
	// each.
	pipeline.NewMetrics(reg).WireErrors.With("decode")
	core.NewMetrics(reg).SamplesQuarantined.With("non_finite_cpi")

	registered := make(map[string]bool)
	for _, line := range strings.Split(reg.Render(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, name := range regexp.MustCompile(`cpi2_[a-z0-9_]+`).FindAllString(string(readme), -1) {
		documented[name] = true
	}
	if len(registered) != 39 {
		t.Errorf("the library renders %d families, want 39", len(registered))
	}
	for _, name := range cpi2agentOnly {
		if registered[name] {
			t.Errorf("%s is cpi2agent's own family, but library code registered it", name)
		}
		registered[name] = true
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered but README.md does not list it", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("README.md lists %s, which nothing registers", name)
		}
	}
}

// TestTraceCommandReconstructsChain is the acceptance run for the
// operator's "why was this task capped?" workflow: after an e2e run
// that capped the antagonist, the agent's /debug/trace (what `cpi2ctl
// trace` reads) must render the full causal chain — the sample batch
// that tripped detection, the detect and decision spans, and the
// incident row — under the incident's one trace ID.
func TestTraceCommandReconstructsChain(t *testing.T) {
	c := obsRun(t, nil)

	// Newest cap incident on any machine: its spans are the most
	// recently recorded, so the bounded ring still retains them.
	incs := c.Incidents()
	var inc *core.Incident
	for j := range incs {
		if incs[j].Decision.Action == core.ActionCap && (inc == nil || !incs[j].Time.Before(inc.Time)) {
			inc = &incs[j]
		}
	}
	if inc == nil {
		t.Fatal("no cap incident in the run; the experiment is vacuous")
	}
	traceID := inc.TraceID.String()
	if traceID == "" {
		t.Fatal("cap incident carries no trace ID")
	}

	// The owner's admin server reads incidents from an event log, as a
	// daemon's does: give it the machine's incident events.
	var owner *agent.Agent
	for _, n := range c.nodes {
		if n.a.Machine().Name() == inc.Machine {
			owner = n.a
		}
	}
	events := obs.NewEventLog(len(incs), nil)
	for _, other := range incs {
		if other.Machine == inc.Machine {
			events.Emit(other.Time, "incident", other.Record())
		}
	}
	admin := obs.NewAdminServer(obs.NewRegistry(), events)
	agent.RegisterAdmin(admin, owner, new(sync.Mutex))
	srv := httptest.NewServer(admin)
	defer srv.Close()

	get := func(arg string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/trace?id=" + url.QueryEscape(arg))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	query := func(arg string) []map[string]any {
		t.Helper()
		code, body := get(arg)
		if code != http.StatusOK {
			t.Fatalf("trace %s = %d %s", arg, code, body)
		}
		var rows []map[string]any
		if err := json.Unmarshal(body, &rows); err != nil {
			t.Fatalf("trace %s: bad payload: %v\n%s", arg, err, body)
		}
		return rows
	}

	// Raw trace-ID form: the chain must contain the originating sample
	// span, the detection, the decision, and the incident itself, in
	// control-loop order, all under the same trace ID.
	rows := query(traceID)
	stages := make(map[string]int)
	order := make([]string, 0, len(rows))
	for _, row := range rows {
		stage, _ := row["stage"].(string)
		stages[stage]++
		order = append(order, stage)
		if id, _ := row["trace_id"].(string); id != traceID {
			t.Errorf("row %v carries trace %q, want %q", row, id, traceID)
		}
	}
	for _, want := range []string{trace.StageSample, trace.StageDetect, trace.StageDecision, "incident"} {
		if stages[want] == 0 {
			t.Errorf("causal chain is missing a %s row (got %v)", want, order)
		}
	}
	first := make(map[string]int)
	for i := len(order) - 1; i >= 0; i-- {
		first[order[i]] = i
	}
	if !(first[trace.StageSample] < first[trace.StageDetect] &&
		first[trace.StageDetect] < first[trace.StageDecision] &&
		first[trace.StageDecision] < first["incident"]) || order[len(order)-1] != "incident" {
		t.Errorf("chain out of control-loop order: %v", order)
	}
	var incRow map[string]any
	for _, row := range rows {
		if row["stage"] == "incident" {
			incRow = row
		}
	}
	if incRow != nil {
		if incRow["action"] != "cap" || incRow["target"] != inc.Decision.Target.String() {
			t.Errorf("incident row %v does not match the cap of %v", incRow, inc.Decision.Target)
		}
	}

	// Task-ID form: the operator names the capped task, the server
	// resolves it to the newest incident involving it. The resolved
	// chain must at minimum include that incident row.
	rows = query(inc.Decision.Target.String())
	found := false
	for _, row := range rows {
		if row["stage"] == "incident" && row["target"] == inc.Decision.Target.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s resolved no incident row for the capped task", inc.Decision.Target)
	}

	// Unknown tasks and traces fail loudly instead of rendering an
	// empty chain.
	for _, arg := range []string{"ghost/0", "0000000000000000"} {
		if code, body := get(arg); code != http.StatusNotFound {
			t.Errorf("trace of unknown %s = %d %s, want 404", arg, code, body)
		}
	}
}

// sliWindow is one observation-window delta of a histogram family.
type sliWindow struct{ n, sum float64 }

func (w sliWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / w.n
}

// TestChaosSLIHonesty is the acceptance run for the reaction-time
// SLIs: under an aggregator blackout the exported numbers must tell
// the truth — spec staleness climbs for exactly as long as the pipe
// is down and falls back after it heals, sample-to-spec observation
// stops during the outage (nothing reaches spec build) and the
// post-replay recompute shows the full blackout-length delay, and the
// spool replay itself is visible as spool spans with nonzero queue
// time.
func TestChaosSLIHonesty(t *testing.T) {
	warm := 12 * time.Minute
	interval := 2 * time.Minute
	blackoutLen := 5 * time.Minute
	bl := Window{From: warm + 3*time.Minute, To: warm + 3*time.Minute + blackoutLen}
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:           7,
		Machines:       8,
		CPUsPerMachine: 16,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: interval},
		Faults:         &FaultPlan{AggregatorBlackouts: []Window{bl}},
		Registry:       reg,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", 16, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}

	cm := core.NewMetrics(reg)
	type snap struct {
		staleN   uint64
		staleSum float64
		s2sN     uint64
		s2sSum   float64
	}
	take := func() snap {
		var s snap
		s.staleN, s.staleSum = cm.SpecStaleness.Count(), cm.SpecStaleness.Sum()
		s.s2sN, s.s2sSum = cm.SampleToSpec.Count(), cm.SampleToSpec.Sum()
		return s
	}
	window := func(from, to snap) (stale, s2s sliWindow) {
		stale = sliWindow{float64(to.staleN - from.staleN), to.staleSum - from.staleSum}
		s2s = sliWindow{float64(to.s2sN - from.s2sN), to.s2sSum - from.s2sSum}
		return
	}

	// Segments: healthy baseline → strictly inside the blackout →
	// replay and first fresh recompute → recovered steady state.
	s0 := take()
	c.Run(3 * time.Minute) // t = warm+3m: blackout begins
	s1 := take()
	c.Run(4*time.Minute + 30*time.Second) // t = warm+7m30s: still dark
	s2 := take()
	c.Run(3*time.Minute + 30*time.Second) // t = warm+11m: replay + fresh recompute done
	s3 := take()
	c.Run(6 * time.Minute) // t = warm+17m: recovered
	s4 := take()

	stalePre, s2sPre := window(s0, s1)
	staleDuring, s2sDuring := window(s1, s2)
	staleReplay, s2sReplay := window(s2, s3)
	staleAfter, _ := window(s3, s4)

	// Staleness is observed continuously; the run must produce data in
	// every window or the means are meaningless.
	for name, w := range map[string]sliWindow{
		"pre": stalePre, "during": staleDuring, "replay": staleReplay, "after": staleAfter,
	} {
		if w.n == 0 {
			t.Fatalf("no staleness observations in the %s window", name)
		}
	}

	// (a) Degrade: mean staleness during the blackout climbs well past
	// the healthy sawtooth and past half the blackout length.
	if staleDuring.mean() <= 1.5*stalePre.mean() {
		t.Errorf("staleness did not degrade: pre mean %.0fs, during mean %.0fs",
			stalePre.mean(), staleDuring.mean())
	}
	if staleDuring.mean() < (blackoutLen / 2).Seconds() {
		t.Errorf("blackout-window staleness mean %.0fs < %.0fs: SLI is under-reporting the outage",
			staleDuring.mean(), (blackoutLen / 2).Seconds())
	}
	// (b) Recover: once pushes resume, staleness falls back to the
	// recompute-interval sawtooth.
	if staleAfter.mean() >= staleDuring.mean()/1.5 {
		t.Errorf("staleness did not recover: during mean %.0fs, after mean %.0fs",
			staleDuring.mean(), staleAfter.mean())
	}
	if staleAfter.mean() > (2 * interval).Seconds() {
		t.Errorf("recovered staleness mean %.0fs > 2×interval %.0fs",
			staleAfter.mean(), (2 * interval).Seconds())
	}

	// (c) Sample-to-spec: observed while healthy, starved during the
	// blackout (no samples reach spec build), and the post-replay
	// window carries the blackout-length delay in its sum.
	if s2sPre.n == 0 {
		t.Error("no sample-to-spec observations before the blackout")
	}
	if s2sDuring.n != 0 {
		t.Errorf("%g sample-to-spec observations during the blackout: samples crossed a dead pipe?", s2sDuring.n)
	}
	if s2sReplay.n == 0 {
		t.Fatal("no sample-to-spec observation after the replay")
	}
	if s2sReplay.sum < blackoutLen.Seconds() {
		t.Errorf("post-replay sample-to-spec sum %.0fs < blackout %.0fs: the spool delay is invisible in the SLI",
			s2sReplay.sum, blackoutLen.Seconds())
	}

	// (d) The replay itself is traced: spool spans exist and record a
	// nonzero spool-induced delay.
	if n := c.SpanCounts()[trace.StageSpool]; n == 0 {
		t.Fatal("no spool spans despite a blackout-induced replay")
	}
	var maxDelay float64
	for _, n := range c.nodes {
		for _, sp := range n.trace.Recent(0) {
			if sp.Stage == trace.StageSpool && sp.QueueSeconds > maxDelay {
				maxDelay = sp.QueueSeconds
			}
		}
	}
	if maxDelay <= 0 {
		t.Error("spool spans carry no queue delay")
	}
	if maxDelay > (blackoutLen + interval).Seconds() {
		t.Errorf("spool delay %.0fs exceeds blackout+interval %.0fs: delay math is wrong",
			maxDelay, (blackoutLen + interval).Seconds())
	}
}
