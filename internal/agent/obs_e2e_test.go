package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func httpDo(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp.StatusCode, string(body)
}

func httpGet(t *testing.T, url string) (int, string) { return httpDo(t, http.MethodGet, url) }

// TestObservabilityEndToEnd runs a real agent+aggregator pair over TCP
// with admin HTTP servers on both sides, then scrapes /metrics and
// /debug/incidents exactly as a monitoring system would, asserting the
// scraped numbers match the in-process ground truth.
func TestObservabilityEndToEnd(t *testing.T) {
	params := core.Params{MinSamplesPerTask: 5}

	// Aggregator side: bus + TCP server + admin server, instrumented.
	aggReg := obs.NewRegistry()
	builder := core.NewSpecBuilder(params)
	builder.SetMetrics(core.NewMetrics(aggReg))
	bus := pipeline.NewBus(builder)
	bus.SetMetrics(pipeline.NewMetrics(aggReg))
	srv := pipeline.NewServer(bus)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	aggAdmin := obs.NewAdminServer(aggReg, nil)
	aggAddr, err := aggAdmin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aggAdmin.Close()

	// Agent side: one machine, instrumented, with its own admin server.
	reg := obs.NewRegistry()
	events := obs.NewEventLog(256, nil)
	m := machine.New("m00", interference.DefaultMachine(model.PlatformA), 16, nil)
	var a *Agent
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	client, err := pipeline.Dial(ctx, addr, func(s model.Spec) { a.DeliverSpec(s) })
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Subscribe(); err != nil {
		t.Fatal(err)
	}
	a = New(m, params, client)
	a.Instrument(reg, events)
	admin := obs.NewAdminServer(reg, events)
	RegisterAdmin(admin, a, new(sync.Mutex))
	adminAddr, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	// Six svc tasks: enough for the fleet-wide robustness gates.
	svcJob := model.Job{Name: "svc", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	svcProfile := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	for j := 0; j < 6; j++ {
		id := model.TaskID{Job: "svc", Index: j}
		if err := m.AddTask(id, svcJob, svcProfile, &workload.Steady{CPU: 1.0, Threads: 8}); err != nil {
			t.Fatal(err)
		}
		a.RegisterTask(id, svcJob)
	}

	// Phase 1: healthy run, build the spec from published samples.
	now := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	step := func(seconds int) {
		for s := 0; s < seconds; s++ {
			m.Tick(now, time.Second)
			a.Tick(now)
			now = now.Add(time.Second)
		}
	}
	step(8 * 60)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r, _ := bus.Stats(); r >= 6*7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("samples never reached the aggregator")
		}
		time.Sleep(10 * time.Millisecond)
	}
	bus.Recompute(now)
	for {
		if _, ok := a.Manager().Detector().Spec(model.SpecKey{Job: "svc", Platform: model.PlatformA}); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("spec push never arrived")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: antagonist lands; run until a cap incident fires.
	antagJob := model.Job{Name: "hog", Class: model.ClassBatch, Priority: model.PriorityBatch}
	antagID := model.TaskID{Job: "hog", Index: 0}
	err = m.AddTask(antagID, antagJob, &interference.Profile{
		DefaultCPI: 1.5, CacheFootprint: 8, MemBandwidth: 6,
		Sensitivity: 0.1, BaseL3MPKI: 12, NoiseSigma: 0.05,
	}, &workload.Steady{CPU: 6, Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(antagID, antagJob)
	capped := false
	for s := 0; s < 12*60 && !capped; s++ {
		m.Tick(now, time.Second)
		for _, inc := range a.Tick(now) {
			if inc.Decision.Action == core.ActionCap {
				capped = true
			}
		}
		now = now.Add(time.Second)
	}
	if !capped {
		t.Fatal("no cap incident; nothing to observe")
	}

	// Scrape the agent's /metrics like a monitoring system would.
	status, body := httpGet(t, "http://"+adminAddr+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"cpi2_samples_observed_total",
		"cpi2_anomalies_total",
		"cpi2_caps_active",
		"cpi2_correlation_seconds_bucket",
		"cpi2_agent_tick_seconds_bucket",
		"cpi2_agent_tasks 7",
		`cpi2_incidents_total{action="cap"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	mm := core.NewMetrics(reg) // idempotent: same series the agent uses
	wantLine := fmt.Sprintf("cpi2_samples_observed_total %g", mm.SamplesObserved.Value())
	if !strings.Contains(body, wantLine) {
		t.Errorf("/metrics does not contain %q", wantLine)
	}

	// /debug/incidents must match Manager.Incidents() exactly.
	status, body = httpGet(t, "http://"+adminAddr+"/debug/incidents")
	if status != http.StatusOK {
		t.Fatalf("/debug/incidents status = %d", status)
	}
	var recs []core.IncidentRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/debug/incidents not valid JSON: %v\n%s", err, body)
	}
	incs := a.Manager().Incidents()
	if len(recs) != len(incs) {
		t.Errorf("/debug/incidents has %d records, Manager.Incidents has %d", len(recs), len(incs))
	}
	nCap := 0
	for _, r := range recs {
		if r.Action == "cap" {
			nCap++
		}
	}
	if want := int(mm.Incidents.With("cap").Value()); nCap != want {
		t.Errorf("cap records = %d, counter says %d", nCap, want)
	}

	// /debug/specs serves the pushed spec table.
	status, body = httpGet(t, "http://"+adminAddr+"/debug/specs")
	if status != http.StatusOK || !strings.Contains(body, `"svc"`) {
		t.Errorf("/debug/specs = %d %s", status, body)
	}

	// /healthz on both sides.
	for _, host := range []string{adminAddr, aggAddr} {
		if status, body := httpGet(t, "http://"+host+"/healthz"); status != http.StatusOK || !strings.Contains(body, `"ok"`) {
			t.Errorf("healthz on %s = %d %s", host, status, body)
		}
	}

	// The aggregator's registry saw the pipeline traffic.
	_, aggBody := httpGet(t, "http://"+aggAddr+"/metrics")
	for _, want := range []string{
		"cpi2_pipeline_samples_total",
		"cpi2_pipeline_connected_agents 1",
		"cpi2_specs_computed_total",
	} {
		if !strings.Contains(aggBody, want) {
			t.Errorf("aggregator /metrics missing %q", want)
		}
	}

	// The event log carries the incidents too.
	if got := len(events.Recent(0, "incident")); got != len(incs) {
		t.Errorf("incident events = %d, want %d", got, len(incs))
	}
}
