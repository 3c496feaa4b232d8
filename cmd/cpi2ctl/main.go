// Command cpi2ctl is the operator CLI of §5: it talks to a CPI² daemon's
// admin HTTP server to inspect a machine's CPI² state, hard-cap suspects
// manually, release caps, and pull recent incidents.
//
// Usage:
//
//	cpi2ctl [-addr host:7423] status
//	cpi2ctl [-addr host:7423] tasks
//	cpi2ctl [-addr host:7423] caps
//	cpi2ctl [-addr host:7423] cap <job>/<index> <quota>
//	cpi2ctl [-addr host:7423] uncap <job>/<index>
//	cpi2ctl [-addr host:7423] release-all
//	cpi2ctl [-addr host:7423] incidents [n]
//	cpi2ctl [-addr host:7423] trace <trace-id|job/index>
//	cpi2ctl shards <admin-addr>[,<admin-addr>…]
//
// status prints the machine line (when the daemon is an agent), then
// summarises /metrics (every cpi2_* series, label sets summed per
// family; histogram families render as p50/p95/p99 quantiles) and lists
// the most recent records from /debug/incidents. It works against an
// aggregator too, which has neither.
//
// cap, uncap and release-all are POSTs to the agent's /cap, /uncap and
// /release-all. tasks, caps, incidents and trace print what the agent's
// /debug endpoint of that name answers, one JSON object per line.
//
// trace renders the causal chain behind a trace context — sample →
// spool → detection → decision spans plus the incidents they produced
// — answering "why was this task capped?". Given a task ID it starts
// from the most recent incident involving that task.
//
// shards queries each listed aggregator's /debug/ring admin endpoint
// and renders the spec tier in one table: shard identity, key count,
// keys hashing off-shard (nonzero mid-reshard), last recompute/push,
// and checkpoint age — and warns when instances disagree about ring
// membership, the condition that makes agents misroute.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/obs"
)

const usage = "usage: cpi2ctl [-addr host:7423] <status|tasks|caps|cap|uncap|release-all|incidents|trace|shards> [args…]"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one cpi2ctl command line and returns the exit code: 0 on
// success, 1 when the daemon refused or could not be reached, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpi2ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7423", "daemon admin HTTP address")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	want := map[string][2]int{ // subcommand → [min, max] arguments
		"status": {0, 0}, "tasks": {0, 0}, "caps": {0, 0}, "release-all": {0, 0},
		"cap": {2, 2}, "uncap": {1, 1}, "trace": {1, 1}, "incidents": {0, 1}, "shards": {1, 1},
	}
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd := strings.ToLower(args[0])
	n, ok := want[cmd]
	if !ok || len(args)-1 < n[0] || len(args)-1 > n[1] {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	c := client{http: &http.Client{Timeout: *timeout}, base: "http://" + *addr, out: stdout}
	if err := c.do(cmd, args[1:]); err != nil {
		fmt.Fprintf(stderr, "cpi2ctl: %v\n", err)
		return 1
	}
	return 0
}

// client is one daemon's admin HTTP server, as the subcommands see it.
type client struct {
	http *http.Client
	base string
	out  io.Writer
}

func (c client) do(cmd string, args []string) error {
	switch cmd {
	case "status":
		return c.status()
	case "tasks", "caps":
		return c.printRows("/debug/" + cmd)
	case "cap", "uncap", "release-all":
		q := url.Values{} // positional: task, then quota
		for i, key := range []string{"task", "quota"}[:len(args)] {
			q.Set(key, args[i])
		}
		var msg string
		if err := c.call(http.MethodPost, "/"+cmd+"?"+q.Encode(), &msg); err != nil {
			return err
		}
		fmt.Fprintln(c.out, msg)
	case "incidents":
		n := 10
		if len(args) == 1 {
			var err error
			if n, err = strconv.Atoi(args[0]); err != nil || n <= 0 {
				return fmt.Errorf("incidents: bad count %q", args[0])
			}
		}
		return c.printRows("/debug/incidents?n=" + strconv.Itoa(n))
	case "trace":
		return c.printRows("/debug/trace?id=" + url.QueryEscape(args[0]))
	case "shards":
		return shardsStatus(c.http, c.out, strings.Split(args[0], ","))
	}
	return nil
}

// printRows prints the JSON array a GET of path answers one element
// per line, compacted.
func (c client) printRows(path string) error {
	var rows []json.RawMessage
	if err := c.call(http.MethodGet, path, &rows); err != nil {
		return err
	}
	enc := json.NewEncoder(c.out)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// fetch sends one request and returns the body of a 200 answer. Any
// other status is an error carrying the daemon's {"error":…} message
// when it sent one.
func fetch(hc *http.Client, method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, e.Error)
		}
		return nil, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return b, nil
}

// call sends one request to the daemon and decodes its JSON answer.
func (c client) call(method, path string, out any) error {
	b, err := fetch(c.http, method, c.base+path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: bad payload: %w", method, path, err)
	}
	return nil
}

// ringInfo mirrors cpi2aggregator's /debug/ring payload.
type ringInfo struct {
	Shard         string         `json:"shard"`
	Sharded       bool           `json:"sharded"`
	KeyCount      int            `json:"key_count"`
	LastRecompute time.Time      `json:"last_recompute"`
	LastPush      time.Time      `json:"last_push"`
	Members       []string       `json:"members"`
	KeysByMember  map[string]int `json:"keys_by_member"`
	Checkpoint    string         `json:"checkpoint"`
	CkptAge       float64        `json:"checkpoint_age_seconds"`
}

// shardsStatus renders a one-table view of the sharded spec tier from
// each aggregator's /debug/ring, flagging unreachable instances, keys
// hashing off-shard (pending moves mid-reshard), and ring-membership
// disagreement between instances.
func shardsStatus(hc *http.Client, out io.Writer, addrs []string) error {
	fmt.Fprintf(out, "%-12s %-22s %6s %10s  %-20s %-20s %s\n",
		"SHARD", "ADDR", "KEYS", "OFF-SHARD", "LAST-RECOMPUTE", "LAST-PUSH", "CHECKPOINT")
	var firstRing []string
	var firstAddr string
	var warnings []string
	reached := 0
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		body, err := fetch(hc, http.MethodGet, "http://"+addr+"/debug/ring")
		if err != nil {
			fmt.Fprintf(out, "%-12s %-22s %s\n", "?", addr, "UNREACHABLE: "+err.Error())
			continue
		}
		var info ringInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return fmt.Errorf("%s: bad /debug/ring payload: %w", addr, err)
		}
		reached++
		name := info.Shard
		if name == "" {
			name = "(unsharded)"
		}
		offShard := 0
		for member, n := range info.KeysByMember {
			if member != info.Shard {
				offShard += n
			}
		}
		ckpt := "-"
		if info.Checkpoint != "" {
			ckpt = fmt.Sprintf("%s (age %s)", info.Checkpoint, time.Duration(info.CkptAge*float64(time.Second)).Round(time.Second))
		}
		fmt.Fprintf(out, "%-12s %-22s %6d %10d  %-20s %-20s %s\n",
			name, addr, info.KeyCount, offShard,
			timeCell(info.LastRecompute), timeCell(info.LastPush), ckpt)
		if info.Sharded {
			if firstRing == nil {
				firstRing, firstAddr = info.Members, addr
			} else if !slices.Equal(firstRing, info.Members) {
				warnings = append(warnings, fmt.Sprintf(
					"ring disagreement: %s sees %v, %s sees %v — agents will misroute until the fleet converges",
					firstAddr, firstRing, addr, info.Members))
			}
		}
	}
	if firstRing != nil {
		fmt.Fprintf(out, "\nring: %s\n", strings.Join(firstRing, ", "))
		if reached < len(firstRing) {
			warnings = append(warnings, fmt.Sprintf(
				"ring has %d members but only %d instance(s) were queried/reachable", len(firstRing), reached))
		}
	}
	for _, w := range warnings {
		fmt.Fprintln(out, "warning: "+w)
	}
	if reached == 0 {
		return fmt.Errorf("no aggregator reachable")
	}
	return nil
}

// timeCell renders a timestamp for the shards table ("-" when zero).
func timeCell(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format("2006-01-02T15:04:05Z")
}

// status summarises a daemon's admin HTTP endpoints: the agent's
// machine line, /metrics, and the recent incidents.
func (c client) status() error {
	var st agent.Status
	if c.call(http.MethodGet, "/debug/status", &st) == nil {
		fmt.Fprintln(c.out, st)
	}
	body, err := fetch(c.http, http.MethodGet, c.base+"/metrics")
	if err != nil {
		return err
	}

	// Sum series per metric family, labels stripped. Histogram bucket
	// lines are folded into per-family cumulative bucket counts (summed
	// across label sets — cumulative counts stay cumulative under
	// addition) and rendered as p50/p95/p99 instead of raw buckets.
	totals := make(map[string]float64)
	buckets := make(map[string]map[float64]float64) // family → finite le → cumulative count
	infs := make(map[string]float64)                // family → +Inf cumulative count (= total)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		name, labels := fields[0], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if strings.HasSuffix(name, "_bucket") {
			fam, le := strings.TrimSuffix(name, "_bucket"), leLabel(labels)
			if le == "" {
				continue
			}
			if le == "+Inf" {
				infs[fam] += v
			} else if bound, err := strconv.ParseFloat(le, 64); err == nil {
				if buckets[fam] == nil {
					buckets[fam] = make(map[float64]float64)
				}
				buckets[fam][bound] += v
			}
			continue
		}
		totals[name] += v
	}
	isHistPart := func(n string) bool {
		fam, ok := strings.CutSuffix(n, "_sum")
		if !ok {
			fam, ok = strings.CutSuffix(n, "_count")
		}
		_, hist := infs[fam]
		return ok && hist
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		if strings.HasPrefix(n, "cpi2_") && !isHistPart(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(c.out, "metrics (%s):\n", strings.TrimPrefix(c.base, "http://"))
	for _, n := range names {
		fmt.Fprintf(c.out, "  %-44s %g\n", n, totals[n])
	}
	fams := make([]string, 0, len(infs))
	for f := range infs {
		if strings.HasPrefix(f, "cpi2_") {
			fams = append(fams, f)
		}
	}
	if len(fams) > 0 {
		sort.Strings(fams)
		fmt.Fprintln(c.out, "\nhistograms (p50 / p95 / p99):")
		for _, f := range fams {
			bounds := make([]float64, 0, len(buckets[f]))
			for b := range buckets[f] {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			cum := make([]uint64, 0, len(bounds)+1)
			for _, b := range bounds {
				cum = append(cum, uint64(buckets[f][b]))
			}
			cum = append(cum, uint64(infs[f]))
			fmt.Fprintf(c.out, "  %-44s %g / %g / %g  (n=%g)\n", f,
				obs.QuantileFromBuckets(bounds, cum, 0.5),
				obs.QuantileFromBuckets(bounds, cum, 0.95),
				obs.QuantileFromBuckets(bounds, cum, 0.99),
				infs[f])
		}
	}

	// The aggregator's admin server has no incident view; metrics alone
	// is still a useful status.
	var recs []core.IncidentRecord
	if c.call(http.MethodGet, "/debug/incidents?n=10", &recs) != nil {
		return nil
	}
	fmt.Fprintf(c.out, "\nrecent incidents: %d\n", len(recs))
	for _, r := range recs {
		line := fmt.Sprintf("  %s victim=%s cpi=%g action=%s", r.Time.Format(time.RFC3339), r.Victim, r.VictimCPI, r.Action)
		if r.Target != "" {
			line += " target=" + r.Target
		}
		fmt.Fprintln(c.out, line)
	}
	return nil
}

// leLabel extracts the le="…" value from a rendered label set.
func leLabel(labels string) string {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+4:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
