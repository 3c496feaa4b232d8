// Package forensics is the offline-analysis substrate of §5: CPI²
// logs data about CPIs and suspected antagonists, and job owners and
// administrators issue SQL-like queries against it (the paper uses
// Dremel) to conduct performance forensics — e.g. find the most
// aggressive antagonists for a job in a particular time window, then
// feed those pairs to the scheduler as anti-affinity constraints.
//
// The package provides an append-only incident store and a small
// query engine over it. The store keeps the incidents themselves and
// builds the table's rows per query. It lives in memory: the durable
// incident stream is the event log's JSONL (cpi2agent -incident-log).
// Queries support:
//
//	SELECT col[, col…] | agg(col)[, …]
//	FROM incidents
//	[WHERE predicate]
//	[GROUP BY col]
//	[ORDER BY col|agg [DESC]]
//	[LIMIT n]
//
// with aggregates COUNT(*), COUNT(col), SUM, AVG, MIN, MAX, operators
// = != > >= < <=, and boolean predicates combining comparisons with
// AND, OR and parentheses (AND binds tighter). Strings are
// single-quoted; timestamps are rendered as RFC3339 UTC strings, which
// order lexicographically.
package forensics

import (
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/model"
)

// Columns of the incidents table, in schema order.
var Columns = []string{
	"time",        // RFC3339 UTC
	"machine",     // machine name
	"victim_job",  // victim's job
	"victim_task", // victim task id string
	"victim_cpi",  // CPI that triggered analysis
	"threshold",   // victim's outlier threshold
	"suspect_job", // top suspect's job ("" if none)
	"suspect_task",
	"correlation", // top suspect's correlation
	"action",      // none | report | cap
	"quota",       // applied cap quota (0 unless capped)
	"trace_id",    // causal trace context ("" on pre-tracing incidents)
}

// Store is an append-only incident log queried as a table with a
// fixed schema.
type Store struct {
	mu   sync.RWMutex
	incs []core.Incident
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Add logs one incident.
func (s *Store) Add(inc core.Incident) {
	s.mu.Lock()
	s.incs = append(s.incs, inc)
	s.mu.Unlock()
}

// AddAll logs a batch of incidents.
func (s *Store) AddAll(incs []core.Incident) {
	for _, inc := range incs {
		s.Add(inc)
	}
}

// Len returns the number of logged incidents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.incs)
}

// Incidents returns a copy of the logged incidents, oldest first.
func (s *Store) Incidents() []core.Incident {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.Incident, len(s.incs))
	copy(out, s.incs)
	return out
}

// row renders inc as a row of the incidents table. The suspect columns
// record the actionable antagonist: the task the decision targeted
// when there is one (capping or reporting), otherwise the top-ranked
// suspect. Top-ranked alone would be misleading: in a fully anomalous
// window every steady co-tenant ties at the same correlation, and the
// policy layer is what singles out the throttleable culprit.
func row(inc core.Incident) []interface{} {
	var suspectJob, suspectTask string
	var correlation float64
	if len(inc.Suspects) > 0 {
		pick := inc.Suspects[0]
		if inc.Decision.Target != (model.TaskID{}) {
			for _, cand := range inc.Suspects {
				if cand.Task == inc.Decision.Target {
					pick = cand
					break
				}
			}
		}
		suspectJob = string(pick.Job)
		suspectTask = pick.Task.String()
		correlation = pick.Correlation
	}
	return []interface{}{
		inc.Time.UTC().Format(time.RFC3339),
		inc.Machine,
		string(inc.VictimJob),
		inc.Victim.String(),
		inc.VictimCPI,
		inc.Threshold,
		suspectJob,
		suspectTask,
		correlation,
		inc.Decision.Action.String(),
		inc.Decision.Quota,
		inc.TraceID.String(),
	}
}

// Result is a query result: column headers plus rows.
type Result struct {
	Columns []string
	Rows    [][]interface{}
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	widths := make([]int, len(r.Columns))
	cells := make([][]string, 0, len(r.Rows)+1)
	header := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range r.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = formatValue(v)
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	var out strings.Builder
	for _, line := range cells {
		for i, cell := range line {
			// Pad to the width in runes, as fmt's %-*s does.
			out.WriteString(cell)
			for pad := widths[i] + 2 - utf8.RuneCountInString(cell); pad > 0; pad-- {
				out.WriteByte(' ')
			}
		}
		out.WriteByte('\n')
	}
	return out.String()
}

func formatValue(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.4g", x)
	case int64:
		return fmt.Sprintf("%d", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Query parses and executes q against the store.
func (s *Store) Query(q string) (Result, error) {
	stmt, err := parse(q)
	if err != nil {
		return Result{}, err
	}
	// The log is append-only, so the snapshot's incidents never change
	// and can be rendered outside the lock.
	s.mu.RLock()
	incs := s.incs
	s.mu.RUnlock()
	rows := make([][]interface{}, len(incs))
	for i, inc := range incs {
		rows[i] = row(inc)
	}
	return stmt.run(rows)
}
