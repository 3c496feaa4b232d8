package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

func startAdmin(t *testing.T) (*AdminServer, *Registry, *EventLog, string) {
	t.Helper()
	reg := NewRegistry()
	events := NewEventLog(16, nil)
	s := NewAdminServer(reg, events)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg, events, addr
}

func httpGet(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminMetricsEndpoint(t *testing.T) {
	_, reg, _, addr := startAdmin(t)
	reg.Counter("cpi2_samples_observed_total", "samples").Add(7)
	code, body, hdr := httpGet(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(body, "cpi2_samples_observed_total 7") {
		t.Errorf("metrics body:\n%s", body)
	}
}

func TestAdminHealthz(t *testing.T) {
	_, _, _, addr := startAdmin(t)
	code, body, _ := httpGet(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var v struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if v.Status != "ok" || v.Uptime < 0 {
		t.Errorf("healthz = %+v", v)
	}
}

func TestAdminDebugEvents(t *testing.T) {
	_, _, events, addr := startAdmin(t)
	for i := 0; i < 5; i++ {
		events.Emit(sampleTime().Add(time.Duration(i)*time.Minute), "incident", i)
	}
	events.Emit(sampleTime(), "cap_applied", "x")
	code, body, _ := httpGet(t, "http://"+addr+"/debug/events?n=2&type=incident")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("events not JSON: %v\n%s", err, body)
	}
	if len(evs) != 2 || evs[0].Type != "incident" {
		t.Errorf("events = %+v", evs)
	}
}

func TestAdminHandleJSON(t *testing.T) {
	s, _, _, addr := startAdmin(t)
	s.HandleJSON("/debug/specs", func(q url.Values) (any, error) {
		return map[string]int{"specs": IntParam(q, "n", 1)}, nil
	})
	s.HandleJSON("/debug/fail", func(q url.Values) (any, error) {
		return nil, fmt.Errorf("boom")
	})
	code, body, hdr := httpGet(t, "http://"+addr+"/debug/specs?n=3")
	if code != http.StatusOK || !strings.Contains(body, `"specs": 3`) {
		t.Errorf("specs: code=%d body=%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	code, body, _ = httpGet(t, "http://"+addr+"/debug/fail")
	if code != http.StatusInternalServerError || !strings.Contains(body, "boom") {
		t.Errorf("fail: code=%d body=%s", code, body)
	}
}

func TestAdminHandleAction(t *testing.T) {
	s, _, _, addr := startAdmin(t)
	acted := 0
	s.HandleAction("/act", func(q url.Values) (any, error) {
		if q.Get("x") == "" {
			return nil, fmt.Errorf("want x")
		}
		acted++
		return "done", nil
	})
	code, _, hdr := httpGet(t, "http://"+addr+"/act?x=1")
	if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != http.MethodPost || acted != 0 {
		t.Errorf("GET: code=%d Allow=%q acted=%d, want 405 Allow POST and no action", code, hdr.Get("Allow"), acted)
	}
	for _, tc := range []struct {
		query string
		code  int
		body  string
	}{{"?x=1", http.StatusOK, `"done"`}, {"", http.StatusBadRequest, "want x"}} {
		resp, err := http.Post("http://"+addr+"/act"+tc.query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.body) {
			t.Errorf("POST /act%s = %d %s, want %d %s", tc.query, resp.StatusCode, body, tc.code, tc.body)
		}
	}
	if acted != 1 {
		t.Errorf("acted %d times, want 1", acted)
	}
}

func TestAdminHandleTrace(t *testing.T) {
	s, _, _, addr := startAdmin(t)
	tr := trace.NewStore(0)
	t1, t2 := trace.SampleID("m", 1), trace.SampleID("m", 2)
	tr.Ingest(t1, "m", "", time.Time{}, 1, 1)
	tr.SpecBuild(t2, "", trace.NewName("j@p"), time.Time{}, 0, 1)
	s.HandleTrace(tr, nil)
	code, body, _ := httpGet(t, "http://"+addr+"/debug/trace?id="+t2.String())
	if code != http.StatusOK || !strings.Contains(body, trace.StageSpecBuild) || strings.Contains(body, trace.StageIngest) {
		t.Errorf("trace t2: %d %s", code, body)
	}
	if code, body, _ := httpGet(t, "http://"+addr+"/debug/trace?n=1"); code != http.StatusOK || !strings.Contains(body, `"`+t2.String()+`"`) || strings.Contains(body, `"`+t1.String()+`"`) {
		t.Errorf("recent 1: %d %s", code, body)
	}
	if code, body, _ := httpGet(t, "http://"+addr+"/debug/trace?id=nope"); code != http.StatusNotFound || !strings.Contains(body, "nope") {
		t.Errorf("unknown trace: %d %s, want 404", code, body)
	}
}

func TestAdminPprofEndpoints(t *testing.T) {
	s := NewAdminServer(NewRegistry(), nil)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/goroutine?debug=1",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %.120s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
