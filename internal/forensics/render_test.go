package forensics

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// renderConcat is the table renderer Result.String replaced, kept as
// the reference: it builds the table with one string concatenation
// per cell, which copies the table so far each time.
func renderConcat(r Result) string {
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
	out := ""
	for _, line := range cells {
		for i, cell := range line {
			out += fmt.Sprintf("%-*s", widths[i]+2, cell)
		}
		out += "\n"
	}
	return out
}

// seededResult builds a rows×12 result from seed whose cells mix
// floats, integers, empty strings, wide strings and non-ASCII text
// (padding counts runes, widths count bytes).
func seededResult(seed int64, rows int) Result {
	rng := rand.New(rand.NewSource(seed))
	r := Result{Columns: []string{"machine", "victim_job", "cpi", "n", "", "suspect", "corrélation", "action", "quota", "trace_id", "note", "x"}}
	words := []string{"", "a", "search", "mapreduce-batch-job-with-a-long-name", "vidéo", "検索", "ünïcødé-tëxt", "tab\there"}
	for i := 0; i < rows; i++ {
		row := make([]interface{}, len(r.Columns))
		for c := range row {
			switch rng.Intn(4) {
			case 0:
				row[c] = rng.NormFloat64() * 1e3
			case 1:
				row[c] = rng.Int63n(1 << 40)
			case 2:
				row[c] = words[rng.Intn(len(words))]
			default:
				row[c] = strings.Repeat(words[rng.Intn(len(words))], rng.Intn(6))
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

func TestResultStringMatchesConcatRenderer(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, rows := range []int{0, 1, 7, 150} {
			r := seededResult(seed, rows)
			if got, want := r.String(), renderConcat(r); got != want {
				t.Fatalf("seed %d, %d rows: Result.String differs from the reference renderer\ngot:\n%s\nwant:\n%s", seed, rows, got, want)
			}
		}
	}
}

// TestResultStringAllocsLinear: rendering allocates a bounded number of
// times per cell and bytes in proportion to the table, where one
// concatenation per cell copied the table so far (quadratic bytes).
func TestResultStringAllocsLinear(t *testing.T) {
	const rows = 2000
	r := seededResult(1, rows)
	cells := (rows + 1) * len(r.Columns)
	if allocs := testing.AllocsPerRun(3, func() { _ = r.String() }); allocs > float64(3*cells+rows+64) {
		t.Errorf("Result.String over %d rows: %.0f allocations, want ≤ %d", rows, allocs, 3*cells+rows+64)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := r.String()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > uint64(16*len(out)+1<<20) {
		t.Errorf("Result.String over %d rows: %d bytes allocated for a %d-byte table", rows, bytes, len(out))
	}
}
