package forensics

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// TestStoreConcurrentAddAndQuery verifies the Store's own locking: in
// the cluster simulation Add only ever runs from the serial commit
// phase, but the admin/forensics surface (cpi2ctl, the examples, a
// replay session) may query a live store from other goroutines. Run
// with -race in CI, this pins Add/Query/Len/Incidents concurrency.
func TestStoreConcurrentAddAndQuery(t *testing.T) {
	t.Parallel()
	s := NewStore()
	const writers, perWriter, readers = 4, 200, 4
	var wg sync.WaitGroup
	start := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(core.Incident{
					Time:      start.Add(time.Duration(w*perWriter+i) * time.Second),
					Machine:   fmt.Sprintf("m%d", w),
					Victim:    model.TaskID{Job: "search", Index: i},
					VictimJob: "search",
					VictimCPI: 3.5,
					Threshold: 2.0,
					Suspects: []core.Suspect{{
						Task: model.TaskID{Job: "video", Index: i}, Job: "video", Correlation: 0.5,
					}},
					Decision: core.Decision{Action: core.ActionCap,
						Target: model.TaskID{Job: "video", Index: i}, Quota: 0.1},
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Query("SELECT machine, count(*) FROM incidents GROUP BY machine"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				_ = s.Len()
				_ = s.Incidents()
			}
		}()
	}
	wg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	res, err := s.Query("SELECT count(*) FROM incidents")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != fmt.Sprint(writers*perWriter) {
		t.Errorf("count rows = %+v", res.Rows)
	}
}
