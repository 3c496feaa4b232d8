package agent

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// adminRig serves a one-task agent's operator surface over HTTP.
func adminRig(t *testing.T) (string, *Agent) {
	t.Helper()
	a, _, _ := newRig(t, nil)
	admin := obs.NewAdminServer(obs.NewRegistry(), nil)
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
	_ = m.AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	// Run until the enforcer's first cap: one journalled action.
	now := t0
	for s := 0; s < 700 && len(a.Manager().Enforcer().ActiveCaps()) == 0; s++ {
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
	_ = a.Machine().AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 2, Threads: 4})
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
	_ = m.AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
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
		t.Errorf("caps = %+v, want the enforcer's cap on mr/0", caps)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/release-all"); code != http.StatusOK || !strings.Contains(body, "released 1 caps") {
		t.Errorf("POST /release-all = %d %s", code, body)
	}
	if m.IsCapped(aid) {
		t.Error("release-all left the cap in place")
	}
}

func TestParseTaskID(t *testing.T) {
	id, err := model.ParseTaskID("websearch-leaf/42")
	if err != nil || id.Job != "websearch-leaf" || id.Index != 42 {
		t.Errorf("parse = %v, %v", id, err)
	}
	for _, bad := range []string{"", "noslash", "/3", "job/", "job/x"} {
		if _, err := model.ParseTaskID(bad); err == nil {
			t.Errorf("ParseTaskID(%q) accepted", bad)
		}
	}
}
