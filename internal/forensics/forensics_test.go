package forensics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

var day0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

func incident(minute int, machine, victimJob, suspectJob string, corr float64, action core.ActionType) core.Incident {
	inc := core.Incident{
		Time:      day0.Add(time.Duration(minute) * time.Minute),
		Machine:   machine,
		Victim:    model.TaskID{Job: model.JobName(victimJob), Index: 0},
		VictimJob: model.JobName(victimJob),
		VictimCPI: 2.5,
		Threshold: 1.4,
		Decision:  core.Decision{Action: action, Quota: 0.1},
	}
	if suspectJob != "" {
		inc.Suspects = []core.Suspect{{
			Task:        model.TaskID{Job: model.JobName(suspectJob), Index: 1},
			Job:         model.JobName(suspectJob),
			Correlation: corr,
		}}
	}
	return inc
}

func loadedStore() *Store {
	s := NewStore()
	s.AddAll([]core.Incident{
		incident(0, "m1", "search", "video", 0.46, core.ActionCap),
		incident(5, "m1", "search", "video", 0.50, core.ActionCap),
		incident(10, "m2", "search", "mapreduce", 0.40, core.ActionCap),
		incident(15, "m3", "ads", "video", 0.38, core.ActionReport),
		incident(20, "m4", "ads", "", 0.07, core.ActionNone),
	})
	return s
}

func TestStoreLen(t *testing.T) {
	s := loadedStore()
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSelectStar_Columns(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT time, machine, victim_job, suspect_job, correlation FROM incidents")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1] != "m1" || res.Rows[0][3] != "video" {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
}

func TestWhereStringEquality(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT machine FROM incidents WHERE victim_job = 'search'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestWhereNumericAndAnd(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT machine FROM incidents WHERE correlation >= 0.4 AND victim_job = 'search'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
	res, err = s.Query("SELECT machine FROM incidents WHERE correlation > 0.46")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(res.Rows))
	}
}

func TestWhereTimeWindow(t *testing.T) {
	s := loadedStore()
	// RFC3339 strings order lexicographically.
	res, err := s.Query("SELECT machine FROM incidents WHERE time >= '2011-11-01T00:05:00Z' AND time < '2011-11-01T00:20:00Z'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestWhereOrAndParentheses(t *testing.T) {
	s := loadedStore()
	// OR: search victims or ads victims.
	res, err := s.Query("SELECT machine FROM incidents WHERE victim_job = 'search' OR victim_job = 'ads'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("OR rows = %d, want all 5", len(res.Rows))
	}
	// AND binds tighter than OR: a OR b AND c = a OR (b AND c).
	res, err = s.Query("SELECT machine FROM incidents WHERE victim_job = 'ads' OR victim_job = 'search' AND correlation >= 0.46")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 ads + 2 search with corr ≥ 0.46
		t.Errorf("precedence rows = %d, want 4", len(res.Rows))
	}
	// Parentheses override precedence.
	res, err = s.Query("SELECT machine FROM incidents WHERE (victim_job = 'ads' OR victim_job = 'search') AND correlation >= 0.46")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // only the two high-correlation search rows
		t.Errorf("parenthesized rows = %d, want 2", len(res.Rows))
	}
	// Nested parentheses.
	res, err = s.Query("SELECT machine FROM incidents WHERE ((machine = 'm1' OR machine = 'm2') AND (correlation > 0.39 OR action = 'cap'))")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("nested rows = %d, want 3", len(res.Rows))
	}
	// Errors.
	for _, q := range []string{
		"SELECT machine FROM incidents WHERE (machine = 'm1'",
		"SELECT machine FROM incidents WHERE machine = 'm1' OR",
		"SELECT machine FROM incidents WHERE ()",
	} {
		if _, err := s.Query(q); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestMostAggressiveAntagonistsQuery(t *testing.T) {
	// The paper's §5 example: most aggressive antagonists for a job in
	// a time window.
	s := loadedStore()
	res, err := s.Query("SELECT suspect_job, count(*) FROM incidents WHERE victim_job = 'search' GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0] != "video" || res.Rows[0][1].(int64) != 2 {
		t.Errorf("top antagonist = %v", res.Rows[0])
	}
	if res.Rows[1][0] != "mapreduce" {
		t.Errorf("second = %v", res.Rows[1])
	}
}

func TestAggregatesNoGroup(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT count(*), avg(correlation), max(correlation), min(correlation), sum(quota) FROM incidents")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("want single row")
	}
	row := res.Rows[0]
	if row[0].(int64) != 5 {
		t.Errorf("count = %v", row[0])
	}
	// The suspectless incident stores correlation 0, so min is 0.
	if row[2].(float64) != 0.50 || row[3].(float64) != 0 {
		t.Errorf("max/min = %v/%v", row[2], row[3])
	}
	if row[4].(float64) != 0.5 {
		t.Errorf("sum quota = %v", row[4])
	}
}

func TestCountColumnSkipsEmpty(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT count(suspect_job) FROM incidents")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4 { // one incident had no suspect
		t.Errorf("count(suspect_job) = %v", res.Rows[0][0])
	}
}

func TestOrderByPlainColumn(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT correlation FROM incidents ORDER BY correlation")
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, r := range res.Rows {
		v := r[0].(float64)
		if v < prev {
			t.Fatalf("not ascending: %v", res.Rows)
		}
		prev = v
	}
	res, err = s.Query("SELECT correlation FROM incidents ORDER BY correlation DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].(float64) != 0.5 {
		t.Errorf("desc limit = %v", res.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	s := loadedStore()
	bad := []string{
		"",
		"SELECT FROM incidents",
		"SELECT nope FROM incidents",
		"SELECT machine FROM nope",
		"SELECT machine FROM incidents WHERE nope = 1",
		"SELECT machine FROM incidents WHERE machine ~ 'x'",
		"SELECT machine FROM incidents WHERE machine = ",
		"SELECT machine FROM incidents LIMIT x",
		"SELECT machine FROM incidents ORDER BY quota", // not selected
		"SELECT machine, count(*) FROM incidents",      // needs GROUP BY
		"SELECT avg(machine) FROM incidents",           // non-numeric agg
		"SELECT sum(*) FROM incidents",                 // * only for count
		"SELECT machine FROM incidents WHERE machine = 'unterminated",
		"SELECT machine FROM incidents BANANA",
		"SELECT machine FROM incidents WHERE correlation = 'str'", // type mismatch
	}
	for _, q := range bad {
		if _, err := s.Query(q); err == nil {
			t.Errorf("query %q unexpectedly succeeded", q)
		}
	}
}

func TestResultString(t *testing.T) {
	s := loadedStore()
	res, err := s.Query("SELECT machine, correlation FROM incidents LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "machine") || !strings.Contains(out, "m1") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("lines = %d", len(lines))
	}
}

func TestEmptyStoreQueries(t *testing.T) {
	s := NewStore()
	res, err := s.Query("SELECT count(*) FROM incidents")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Error("count on empty store should be 0")
	}
	res, err = s.Query("SELECT machine FROM incidents WHERE correlation > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Error("rows on empty store")
	}
}
