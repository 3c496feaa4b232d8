package agent

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// adminRig serves a one-task agent's operator surface over HTTP, wired
// like the daemon: the admin server serves the event log the agent
// emits into.
func adminRig(t *testing.T) (string, *Agent) {
	t.Helper()
	return adminRigWith(t, core.DefaultParams(), nil)
}

// adminRigWith is adminRig with the agent's params p and span store tr
// (nil: untraced).
func adminRigWith(t *testing.T, p core.Params, tr *trace.Store) (string, *Agent) {
	t.Helper()
	a, _, _ := newRigWith(t, p, nil)
	a.SetTrace(tr)
	reg, events := obs.NewRegistry(), obs.NewEventLog(0, nil)
	a.Instrument(reg, events)
	admin := obs.NewAdminServer(reg, events)
	RegisterAdmin(admin, a, new(sync.Mutex))
	srv := httptest.NewServer(admin)
	t.Cleanup(srv.Close)
	return srv.URL, a
}

// getJSON decodes a 200 answer to GET url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	code, body := httpDo(t, http.MethodGet, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d %s", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), out); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
}

func TestControlStatus(t *testing.T) {
	url, _ := adminRig(t)
	var st Status
	getJSON(t, url+"/debug/status", &st)
	if st.Machine != "m1" || st.Tasks != 1 {
		t.Errorf("status = %+v", st)
	}
	if !strings.HasPrefix(st.String(), "machine=m1 ") {
		t.Errorf("status line = %q", st.String())
	}
}

// failingJournal refuses every append, like a journal on a dead disk.
type failingJournal struct{}

func (failingJournal) Append(core.CapJournalEntry) error { return errors.New("disk gone") }

// TestControlStatusJournalErrors: a journal append that fails does not
// stop enforcement, and /debug/status shows that it failed.
func TestControlStatusJournalErrors(t *testing.T) {
	url, a := adminRig(t)
	a.Manager().SetJournal(failingJournal{})
	installSearchSpec(a)
	m := a.Machine()
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	// Run until the manager's first cap: one journalled action.
	now := t0
	for s := 0; s < 700 && len(a.Manager().ActiveCaps()) == 0; s++ {
		runSim(a, m, now, 1)
		now = now.Add(time.Second)
	}
	if !m.IsCapped(aid) {
		t.Fatal("no cap applied; the test needs one journalled action")
	}
	var st Status
	getJSON(t, url+"/debug/status", &st)
	if st.JournalErrors != 1 || st.Caps != 1 {
		t.Errorf("status = %+v, want journal_errors 1 beside the 1 cap", st)
	}
	if !strings.Contains(st.String(), " journal_errors=1") {
		t.Errorf("status line = %q", st.String())
	}
}

func TestControlTasksAndCaps(t *testing.T) {
	url, a := adminRig(t)
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = a.Machine().AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 2, Threads: 4})
	a.RegisterTask(aid, mrJob)

	var tasks []taskRow
	getJSON(t, url+"/debug/tasks", &tasks)
	if len(tasks) != 2 {
		t.Fatalf("tasks = %+v", tasks)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/cap?task=mr/0&quota=0.1"); code != http.StatusOK || !strings.Contains(body, "capped") {
		t.Fatalf("POST /cap = %d %s", code, body)
	}
	if !a.Machine().IsCapped(aid) {
		t.Error("task not capped")
	}
	getJSON(t, url+"/debug/tasks", &tasks)
	if len(tasks) != 2 || tasks[0].Cap != "" || tasks[1].Task != "mr/0" || tasks[1].Cap != "operator" {
		t.Errorf("tasks missing the cap: %+v", tasks)
	}
	var caps []taskRow
	getJSON(t, url+"/debug/caps", &caps)
	if len(caps) != 1 || caps[0] != (taskRow{Task: "mr/0", Class: "batch", Priority: "batch", Cap: "operator"}) {
		t.Errorf("caps = %+v", caps)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/uncap?task=mr/0"); code != http.StatusOK || !strings.Contains(body, "uncapped") {
		t.Fatalf("POST /uncap = %d %s", code, body)
	}
	if a.Machine().IsCapped(aid) {
		t.Error("task still capped")
	}
}

func TestControlErrors(t *testing.T) {
	url, _ := adminRig(t)
	for _, path := range []string{
		"/",
		"/bogus",
		"/cap",
		"/cap?task=badid&quota=0.1",
		"/cap?task=mr/x&quota=0.1",
		"/cap?task=search/0&quota=-1",
		"/uncap",
		"/uncap?task=noslash",
		"/cap?task=ghost/0&quota=0.1", // unknown task
	} {
		code, body := httpDo(t, http.MethodPost, url+path)
		if code < 400 || code >= 500 {
			t.Errorf("POST %s = %d %s, want 4xx", path, code, body)
		}
	}
}

func TestControlIncidents(t *testing.T) {
	url, a := adminRig(t)
	installSearchSpec(a)
	m := a.Machine()
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	runSim(a, m, t0, 700)

	var recs []core.IncidentRecord
	getJSON(t, url+"/debug/incidents?n=5", &recs)
	if len(recs) == 0 || len(recs) > 5 {
		t.Fatalf("incidents = %+v", recs)
	}
	if recs[0].Victim != "search/0" {
		t.Errorf("incident = %+v", recs[0])
	}
	var caps []taskRow
	getJSON(t, url+"/debug/caps", &caps)
	if len(caps) != 1 || caps[0].Task != "mr/0" || caps[0].Cap != "cpi2" || caps[0].Quota <= 0 {
		t.Errorf("caps = %+v, want the manager's cap on mr/0", caps)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/release-all"); code != http.StatusOK || !strings.Contains(body, "released 1 caps") {
		t.Errorf("POST /release-all = %d %s", code, body)
	}
	if m.IsCapped(aid) {
		t.Error("release-all left the cap in place")
	}
}

// TestControlIncidentsFromEventLog: /debug/incidents is the event log's
// incident view without envelopes, and a job/index trace resolves from
// the same log.
func TestControlIncidentsFromEventLog(t *testing.T) {
	url, a := adminRig(t)
	installSearchSpec(a)
	m := a.Machine()
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	incs := runSim(a, m, t0, 700)
	if len(incs) < 2 {
		t.Fatalf("%d incidents; the comparison needs several", len(incs))
	}
	for _, k := range []int{1, 2, len(incs), len(incs) + 3} {
		var recs []json.RawMessage
		getJSON(t, fmt.Sprintf("%s/debug/incidents?n=%d", url, k), &recs)
		var evs []struct {
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		getJSON(t, fmt.Sprintf("%s/debug/events?type=incident&n=%d", url, k), &evs)
		if want := min(k, len(incs)); len(recs) != want || len(evs) != want {
			t.Fatalf("n=%d: %d incidents, %d incident events; want %d", k, len(recs), len(evs), want)
		}
		for i := range recs {
			var rec, data bytes.Buffer
			_ = json.Compact(&rec, recs[i])
			_ = json.Compact(&data, evs[i].Data)
			if evs[i].Type != "incident" || rec.String() != data.String() {
				t.Errorf("n=%d #%d: incident %s, event %s %s", k, i, &rec, evs[i].Type, &data)
			}
		}
	}

	// The newest incident naming the antagonist as its cap target gives
	// the trace; its decision rows, then its incident rows, follow the
	// (here absent) spans.
	var capInc core.Incident
	for _, inc := range incs {
		if inc.Decision.Target == aid {
			capInc = inc
		}
	}
	if capInc.TraceID == (trace.ID{}) {
		t.Fatalf("no incident targets %v", aid)
	}
	var rows []struct {
		Stage   string `json:"stage"`
		TraceID string `json:"trace_id"`
		Target  string `json:"target"`
	}
	getJSON(t, url+"/debug/trace?id=mr/0", &rows)
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("trace mr/0: %d rows, want a decision row and an incident row per incident", len(rows))
	}
	for i, r := range rows {
		stage := "incident"
		if i < len(rows)/2 {
			stage = trace.StageDecision
		}
		if r.Stage != stage || r.TraceID != capInc.TraceID.String() {
			t.Errorf("trace mr/0 row %d %+v, want a %s row of trace %s", i, r, stage, capInc.TraceID)
		}
	}
	if code, body := httpDo(t, http.MethodGet, url+"/debug/trace?id=ghost/0"); code != http.StatusNotFound {
		t.Errorf("trace ghost/0 = %d %s, want 404", code, body)
	}
}

// TestTraceDecisionOutlivesItsSpans: a cap that lives longer than the
// span store's horizon keeps its chain's decision row, with its
// reaction time, and its incident row after the sample and detect
// spans have left, by trace ID and by task.
func TestTraceDecisionOutlivesItsSpans(t *testing.T) {
	p := core.DefaultParams()
	p.CapDuration = 2 * p.LookBack()
	tr := trace.NewStore(0)
	tr.SetHorizon(p.LookBack())
	url, a := adminRigWith(t, p, tr)
	installSearchSpec(a)
	m := a.Machine()
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	var capInc core.Incident
	now := t0
	for ; now.Before(t0.Add(time.Hour)) && capInc.TraceID == (trace.ID{}); now = now.Add(time.Second) {
		for _, inc := range runSim(a, m, now, 1) {
			if inc.Decision.Action == core.ActionCap {
				capInc = inc
			}
		}
	}
	id := capInc.TraceID.String()
	if id == "" || capInc.Reaction <= 0 || len(tr.ByTrace(id)) == 0 {
		t.Fatalf("cap incident %+v with %d spans; the test needs a traced cap with a reaction time", capInc, len(tr.ByTrace(id)))
	}
	runSim(a, m, now, int((p.LookBack() + 5*time.Minute).Seconds()))
	if sp := tr.ByTrace(id); sp != nil || !m.IsCapped(aid) {
		t.Fatalf("past the horizon: %d spans remain, capped %v; want none and the cap live", len(sp), m.IsCapped(aid))
	}
	for _, arg := range []string{id, aid.String()} {
		var rows []map[string]any
		getJSON(t, url+"/debug/trace?id="+arg, &rows)
		if len(rows) != 2 || rows[0]["stage"] != trace.StageDecision || rows[1]["stage"] != "incident" {
			t.Fatalf("trace %s = %v, want the decision row and the incident row", arg, rows)
		}
		if rows[0]["queue_seconds"] != capInc.Reaction.Seconds() || rows[0]["detail"] != "cap mr/0" || rows[1]["trace_id"] != id {
			t.Errorf("trace %s = %v, want queue_seconds %v and detail \"cap mr/0\" of trace %s", arg, rows, capInc.Reaction.Seconds(), id)
		}
	}
}

// TestDecisionSpan: an incident renders as the decision span a store
// used to record for it: the victim's key, the reaction as queue
// seconds, and the action with its target, if any, as detail.
func TestDecisionSpan(t *testing.T) {
	at := time.Date(2011, 11, 1, 3, 0, 0, 5, time.UTC)
	tid, task := trace.SampleID("machine-0001", 7), model.TaskID{Job: "video", Index: 3}
	inc := core.Incident{Time: at, Machine: "machine-0001", Victim: task, TraceID: tid}
	id := tid.String()
	capped := inc
	capped.Decision, capped.Reaction = core.Decision{Action: core.ActionCap, Target: task}, 42*time.Second
	for _, c := range []struct {
		inc  core.Incident
		want trace.Span
	}{
		{capped, trace.Span{TraceID: id, Stage: trace.StageDecision, Machine: "machine-0001", Key: "video/3", Time: at, QueueSeconds: 42, Detail: "cap video/3"}},
		{inc, trace.Span{TraceID: id, Stage: trace.StageDecision, Machine: "machine-0001", Key: "video/3", Time: at, Detail: "none"}},
	} {
		if got := decisionSpan(c.inc.Record()); got != c.want {
			t.Errorf("decision span\n got %+v\nwant %+v", got, c.want)
		}
	}
}

func TestParseTaskID(t *testing.T) {
	id, err := model.ParseTaskID("websearch-leaf/42")
	if err != nil || id.Job != "websearch-leaf" || id.Index != 42 {
		t.Errorf("parse = %v, %v", id, err)
	}
	for _, bad := range []string{"", "noslash", "/3", "job/", "job/x", "job/07", "job/+7", "job/-0"} {
		if _, err := model.ParseTaskID(bad); err == nil {
			t.Errorf("ParseTaskID(%q) accepted", bad)
		}
	}
}
