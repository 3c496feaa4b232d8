package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs/trace"
)

// AdminServer is the admin HTTP endpoint every CPI² daemon exposes:
//
//	GET /metrics          Prometheus text exposition of the registry
//	GET /healthz          liveness JSON: {"status":"ok","uptime_seconds":…}
//	GET /buildinfo        Go version, VCS revision, and start time
//	GET /debug/events     recent structured events (?n=100&type=incident)
//	GET /debug/pprof/     Go runtime profiles (cpu, heap, goroutine, …)
//
// The pprof endpoints exist so a scaling regression in a live daemon
// is diagnosed with `go tool pprof http://host:port/debug/pprof/profile`
// instead of guesswork — the PR-2 negative-scaling bug went unexplained
// precisely because no profile could be pulled from a running cluster.
//
// plus the component-specific views registered with HandleJSON and
// HandleTrace (the daemons add /debug/specs, /debug/trace and more) and
// the operator verbs registered with HandleAction (the agent's /cap,
// /uncap and /release-all). It is the HTTP face of the dashboards,
// rollout monitoring and manual capping the paper's operators relied
// on.
type AdminServer struct {
	reg    *Registry
	events *EventLog
	mux    *http.ServeMux
	start  time.Time

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// NewAdminServer builds a server over reg (required) and events (may
// be nil; /debug/events then returns an empty list).
func NewAdminServer(reg *Registry, events *EventLog) *AdminServer {
	s := &AdminServer{
		reg:    reg,
		events: events,
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// net/http/pprof only self-registers on http.DefaultServeMux; wire
	// its handlers onto our mux explicitly. Index also serves the named
	// runtime profiles (heap, goroutine, block, mutex, …) by suffix.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.HandleJSON("/debug/events", func(q url.Values) (any, error) {
		n := IntParam(q, "n", 100)
		evs := s.events.Recent(n, q.Get("type"))
		if evs == nil {
			evs = []Event{}
		}
		return evs, nil
	})
	s.HandleJSON("/buildinfo", func(url.Values) (any, error) {
		return buildInfo(s.start), nil
	})
	if reg != nil {
		// Registered here (idempotently — GaugeFunc re-registration
		// just swaps the closure) so every daemon exports uptime
		// without per-daemon wiring.
		reg.GaugeFunc("cpi2_uptime_seconds",
			"seconds since this daemon's admin server was created",
			func() float64 { return time.Since(s.start).Seconds() })
	}
	return s
}

// buildInfo assembles the /buildinfo payload: toolchain, module, and
// VCS stamp from runtime/debug.ReadBuildInfo plus the process start
// time. Fields missing from the build (e.g. `go test` binaries carry
// no VCS stamp) are simply absent.
func buildInfo(start time.Time) map[string]any {
	out := map[string]any{
		"go_version": runtime.Version(),
		"start_time": start.UTC().Format(time.RFC3339),
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["main_module"] = bi.Main.Path
	if bi.Main.Version != "" {
		out["module_version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["vcs_revision"] = kv.Value
		case "vcs.time":
			out["vcs_time"] = kv.Value
		case "vcs.modified":
			out["vcs_modified"] = kv.Value == "true"
		}
	}
	return out
}

// Events returns the event log served at /debug/events (nil when the
// server has none), for endpoints that serve views of it.
func (s *AdminServer) Events() *EventLog { return s.events }

// HandleJSON registers a GET endpoint whose result is marshalled as
// JSON. fn receives the parsed query parameters; returning an error
// yields a 500 with {"error":…}.
func (s *AdminServer) HandleJSON(path string, fn func(q url.Values) (any, error)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		v, err := fn(r.URL.Query())
		reply(w, v, err, http.StatusInternalServerError)
	})
}

// HandleAction registers a POST endpoint that changes state, such as an
// operator's manual cap. Any other method answers 405 with Allow: POST,
// so a crawler or a stray GET cannot act. An error from fn means the
// request was malformed (a bad or unknown argument) and yields a 400
// with {"error":…}.
func (s *AdminServer) HandleAction(path string, fn func(q url.Values) (any, error)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			reply(w, nil, fmt.Errorf("%s wants POST", path), http.StatusMethodNotAllowed)
			return
		}
		v, err := fn(r.URL.Query())
		reply(w, v, err, http.StatusBadRequest)
	})
}

// HandleTrace registers GET /debug/trace over the span store tr:
// ?id=<trace> returns that causal chain oldest-first, ?n=<count> the
// most recent spans. join (may be nil) lets a daemon widen the id form:
// it maps the argument to a trace ID and returns rows to append after
// that trace's spans, or an error when the argument names nothing. An
// ?id= that yields no rows answers 404.
func (s *AdminServer) HandleTrace(tr *trace.Store, join func(arg string) (id string, rows []any, err error)) {
	s.mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		arg := q.Get("id")
		if arg == "" {
			reply(w, tr.Recent(IntParam(q, "n", 100)), nil, 0)
			return
		}
		id, extra := arg, []any(nil)
		if join != nil {
			var err error
			if id, extra, err = join(arg); err != nil {
				reply(w, nil, err, http.StatusNotFound)
				return
			}
		}
		var rows []any
		for _, sp := range tr.ByTrace(id) {
			rows = append(rows, sp)
		}
		rows = append(rows, extra...)
		if len(rows) == 0 {
			reply(w, nil, fmt.Errorf("no spans or incidents for trace %s", id), http.StatusNotFound)
			return
		}
		reply(w, rows, nil, 0)
	})
}

// ServeHTTP serves the admin endpoints, so an AdminServer can be mounted
// on any listener (httptest in tests) as well as through Serve.
func (s *AdminServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// reply answers v as JSON with 200, or, when err is set, {"error":…}
// with errCode.
func reply(w http.ResponseWriter, v any, err error, errCode int) {
	code := http.StatusOK
	if err != nil {
		code, v = errCode, map[string]string{"error": err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *AdminServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

func (s *AdminServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// Serve starts listening on addr ("host:port", port 0 for ephemeral)
// and returns the bound address. It does not block; Close stops it.
func (s *AdminServer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: admin listen: %w", err)
	}
	srv := &http.Server{Handler: s}
	s.mu.Lock()
	s.ln = ln
	s.srv = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the server and its listener.
func (s *AdminServer) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// IntParam parses an integer query parameter with a default.
func IntParam(q url.Values, key string, def int) int {
	if v := q.Get(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}
