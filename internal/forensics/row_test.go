package forensics

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// eagerRow is the row the store used to build at Add time, kept
// verbatim as the oracle for rows rendered at query time.
func eagerRow(inc core.Incident) []interface{} {
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

// streamCoverage counts the shapes of incident the row oracle must see.
type streamCoverage struct {
	targetNotTop, targetBelowTop5, targetNotSuspect, noSuspects int
	none, report, group, nonUTC, emptyTrace                     int
}

// incidentStream returns n seeded incidents mixing every shape the
// suspect pick and the time and trace cells can meet, and counts them.
func incidentStream(seed uint64, n int) ([]core.Incident, streamCoverage) {
	r := rand.New(rand.NewPCG(seed, 0))
	jobs := []model.JobName{"search", "ads", "video", "mapreduce", "bigtable", "logproc"}
	zones := []*time.Location{time.UTC, time.FixedZone("PDT", -7*3600), time.FixedZone("IST", 5*3600+1800)}
	start := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	var cov streamCoverage
	incs := make([]core.Incident, 0, n)
	for i := 0; i < n; i++ {
		victim := model.TaskID{Job: jobs[r.IntN(len(jobs))], Index: r.IntN(50)}
		zone := zones[r.IntN(len(zones))]
		inc := core.Incident{
			Time:      start.Add(time.Duration(i)*37*time.Second + time.Duration(r.IntN(1e9))).In(zone),
			Machine:   fmt.Sprintf("machine-%04d", r.IntN(20)),
			Victim:    victim,
			VictimJob: victim.Job,
			VictimCPI: 1 + 4*r.Float64(),
			Threshold: 1 + r.Float64(),
		}
		if zone != time.UTC {
			cov.nonUTC++
		}
		for k := r.IntN(9); k > 0; k-- {
			job := jobs[r.IntN(len(jobs))]
			inc.Suspects = append(inc.Suspects, core.Suspect{
				Task: model.TaskID{Job: job, Index: r.IntN(50)}, Job: job, Correlation: r.Float64(),
			})
		}
		slices.SortFunc(inc.Suspects, func(a, b core.Suspect) int { return cmp.Compare(b.Correlation, a.Correlation) })
		if len(inc.Suspects) == 0 {
			cov.noSuspects++
		}
		inc.Decision.Action = core.ActionType(r.IntN(3))
		switch inc.Decision.Action {
		case core.ActionNone:
			cov.none++
		case core.ActionReport:
			cov.report++
		case core.ActionCap:
			inc.Decision.Quota = 0.05 + 0.5*r.Float64()
		}
		if inc.Decision.Action != core.ActionNone {
			if pick := r.IntN(len(inc.Suspects) + 1); pick < len(inc.Suspects) {
				inc.Decision.Target = inc.Suspects[pick].Task
				if pick > 0 {
					cov.targetNotTop++
				}
				if pick >= 5 {
					cov.targetBelowTop5++
				}
			} else {
				inc.Decision.Target = model.TaskID{Job: "stranger", Index: i}
				cov.targetNotSuspect++
			}
		}
		if len(inc.Suspects) >= 2 && r.IntN(4) == 0 {
			members := inc.Suspects[len(inc.Suspects)-2:]
			inc.Group = &core.GroupSuspect{Members: members, Correlation: r.Float64()}
			for _, m := range members {
				inc.GroupDecisions = append(inc.GroupDecisions,
					core.Decision{Action: core.ActionCap, Target: m.Task, Quota: 0.1})
			}
			cov.group++
		}
		if r.IntN(3) > 0 {
			inc.TraceID = trace.ParseID(fmt.Sprintf("%016x", r.Uint64()))
		} else {
			cov.emptyTrace++
		}
		incs = append(incs, inc)
	}
	return incs, cov
}

// TestRowsRenderedOnReadMatchEager: a store that renders its rows per
// query answers every column, clustersim's two default queries and a
// few filtered ones exactly as a table of rows built at Add time did.
func TestRowsRenderedOnReadMatchEager(t *testing.T) {
	incs, cov := incidentStream(44, 300)
	for name, n := range map[string]int{
		"decision target not top-ranked": cov.targetNotTop,
		"target ranked below the top 5":  cov.targetBelowTop5,
		"target not among the suspects":  cov.targetNotSuspect,
		"no suspects":                    cov.noSuspects,
		"none action":                    cov.none,
		"report action":                  cov.report,
		"group decisions":                cov.group,
		"non-UTC time":                   cov.nonUTC,
		"empty trace id":                 cov.emptyTrace,
	} {
		if n == 0 {
			t.Errorf("the stream has no incident with %s", name)
		}
	}
	store := NewStore()
	store.AddAll(incs)
	eager := make([][]interface{}, len(incs))
	for i, inc := range incs {
		eager[i] = eagerRow(inc)
	}
	for _, q := range []string{
		"SELECT " + strings.Join(Columns, ", ") + " FROM incidents",
		"SELECT suspect_job, count(*), avg(correlation) FROM incidents GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 5",
		"SELECT victim_job, count(*), max(victim_cpi) FROM incidents GROUP BY victim_job ORDER BY count(*) DESC LIMIT 5",
		"SELECT suspect_task, correlation, quota FROM incidents WHERE action = 'cap' ORDER BY correlation DESC",
		"SELECT time, trace_id FROM incidents WHERE time >= '2011-11-01T02:00:00Z' AND trace_id = ''",
		"SELECT action, count(suspect_job), sum(quota) FROM incidents GROUP BY action",
	} {
		got, err := store.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmt, err := parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stmt.run(eager)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Errorf("%s: no rows, so nothing is compared", q)
		}
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Errorf("%s: rendered on read\n%s\nbuilt at Add\n%s", q, got, want)
		}
	}
}

// TestForensicsAddAllocatesNoRow: logging an incident to a warm store
// appends it and builds nothing; the row is rendered only by Query.
func TestForensicsAddAllocatesNoRow(t *testing.T) {
	incs, _ := incidentStream(7, 64)
	s := NewStore()
	s.AddAll(incs)
	s.incs = s.incs[:0] // warm: keep the grown backing array
	i := 0
	if allocs := testing.AllocsPerRun(len(incs)-1, func() {
		s.Add(incs[i])
		i++
	}); allocs != 0 {
		t.Errorf("Store.Add allocates %.1f times per incident, want 0", allocs)
	}
}
