package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// capturedAgent runs a traced agent on one machine until CPI² has
// capped a cache-hammering antagonist, then serves its operator surface
// from httptest.
func capturedAgent(t *testing.T) (*httptest.Server, *agent.Agent, model.TaskID) {
	t.Helper()
	m := machine.New("m1", interference.DefaultMachine(model.PlatformA), 8, nil)
	reg := obs.NewRegistry()
	a := agent.New(m, core.DefaultParams(), nil)
	a.Instrument(reg, nil)
	a.SetTrace(trace.NewStore(0))
	search := model.Job{Name: "search", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	mr := model.Job{Name: "mr", Class: model.ClassBatch, Priority: model.PriorityBatch}
	vid, aid := model.TaskID{Job: "search", Index: 0}, model.TaskID{Job: "mr", Index: 0}
	if err := m.AddTask(vid, search, &interference.Profile{DefaultCPI: 1.0, CacheFootprint: 1, MemBandwidth: 0.5, Sensitivity: 1.2, BaseL3MPKI: 2},
		&workload.Steady{CPU: 1.2, Threads: 16}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTask(aid, mr, &interference.Profile{DefaultCPI: 1.5, CacheFootprint: 10, MemBandwidth: 8, Sensitivity: 0.2, BaseL3MPKI: 12},
		&workload.Steady{CPU: 5, Threads: 40}); err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(vid, search)
	a.RegisterTask(aid, mr)
	a.DeliverSpec(model.Spec{Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.08})
	now := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 700; s++ {
		m.Tick(now, time.Second)
		a.Tick(now)
		now = now.Add(time.Second)
	}
	if !m.IsCapped(aid) {
		t.Fatal("the run capped nothing; there is nothing to operate on")
	}
	admin := obs.NewAdminServer(reg, nil)
	agent.RegisterAdmin(admin, a, new(sync.Mutex))
	srv := httptest.NewServer(admin)
	t.Cleanup(srv.Close)
	return srv, a, aid
}

func TestCommands(t *testing.T) {
	srv, a, aid := capturedAgent(t)
	m := a.Machine()
	ctl := func(wantCode int, args ...string) []string {
		t.Helper()
		var out, errOut bytes.Buffer
		code := run(append([]string{"-addr", strings.TrimPrefix(srv.URL, "http://")}, args...), &out, &errOut)
		if code != wantCode {
			t.Fatalf("cpi2ctl %v = %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, wantCode, &out, &errOut)
		}
		return strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	}

	status := ctl(0, "status")
	if !strings.HasPrefix(status[0], "machine=m1 ") || !strings.Contains(status[0], "tasks=2") {
		t.Errorf("status machine line = %q", status[0])
	}
	for _, want := range []string{"metrics (", "cpi2_caps_applied_total", "recent incidents: "} {
		if !strings.Contains(strings.Join(status, "\n"), want) {
			t.Errorf("status is missing %q:\n%s", want, strings.Join(status, "\n"))
		}
	}

	if tasks := ctl(0, "tasks"); len(tasks) != 2 || !strings.HasPrefix(tasks[1], `{"task":"mr/0","class":"batch","priority":"batch","cap":"cpi2","quota":`) {
		t.Errorf("tasks = %q", tasks)
	}
	if caps := ctl(0, "caps"); len(caps) != 1 || !strings.HasPrefix(caps[0], `{"task":"mr/0",`) || !strings.Contains(caps[0], `"cap":"cpi2"`) {
		t.Errorf("caps = %q", caps)
	}

	incs := a.Manager().Incidents()
	if lines := ctl(0, "incidents"); len(lines) != min(10, len(incs)) {
		t.Errorf("incidents printed %d lines, want %d", len(lines), min(10, len(incs)))
	}
	lines := ctl(0, "incidents", "2")
	if len(lines) != 2 {
		t.Fatalf("incidents 2 = %q", lines)
	}
	var rec core.IncidentRecord
	newest := incs[len(incs)-1]
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil || rec.Victim != "search/0" ||
		rec.TraceID != newest.TraceID || !rec.Time.Equal(newest.Time) {
		t.Errorf("incident line %q is not the newest incident record (%v)", lines[1], err)
	}
	ctl(1, "incidents", "x")

	// Both trace forms end in the capping incident's row.
	var capInc core.Incident
	for _, inc := range incs {
		if inc.Decision.Action == core.ActionCap {
			capInc = inc
		}
	}
	for _, arg := range []string{capInc.TraceID, aid.String()} {
		rows := ctl(0, "trace", arg)
		var last map[string]any
		if err := json.Unmarshal([]byte(rows[len(rows)-1]), &last); err != nil {
			t.Fatalf("trace %s: %v", arg, err)
		}
		if last["stage"] != "incident" || last["target"] != aid.String() {
			t.Errorf("trace %s ends with %v, want the incident capping %v", arg, last, aid)
		}
		if len(rows) < 2 {
			t.Errorf("trace %s has no spans before the incident: %q", arg, rows)
		}
	}
	ctl(1, "trace", "ghost/0")

	if got := ctl(0, "release-all"); got[0] != "released 1 caps" {
		t.Errorf("release-all = %q", got)
	}
	if m.IsCapped(aid) {
		t.Fatal("release-all left mr/0 capped")
	}
	ctl(0, "cap", "mr/0", "0.5")
	if !m.IsCapped(aid) {
		t.Fatal("cap did not cap mr/0")
	}
	if caps := ctl(0, "caps"); len(caps) != 1 || caps[0] != `{"task":"mr/0","class":"batch","priority":"batch","cap":"operator"}` {
		t.Errorf("caps after an operator cap = %q", caps)
	}
	ctl(0, "uncap", "mr/0")
	if m.IsCapped(aid) {
		t.Fatal("uncap left mr/0 capped")
	}
	ctl(1, "cap", "ghost/0", "0.1")
	ctl(2, "cap", "mr/0")
	ctl(2, "bogus")
	ctl(2)

	// The verbs are POST-only: a GET (a crawler, a prefetching proxy)
	// must not act.
	resp, err := http.Get(srv.URL + "/cap?task=mr/0&quota=0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /cap = %d Allow %q, want 405 Allow POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if m.IsCapped(aid) {
		t.Error("GET /cap capped the task")
	}
}
