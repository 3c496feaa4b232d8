package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload × metric comparison of result file A (the
// parent) with result file B (the change).
type compareRow struct {
	workload string
	def      metricDef
	a, b     side
	// change is (B−A)/A of the medians; worseBy is the same with the
	// sign turned so that positive means B is worse.
	change, worseBy float64
	// spread is the wider of the two sides' interquartile range as a
	// share of its median.
	spread  float64
	verdict string
}

// side is one file's repetitions of one metric on one workload.
type side struct {
	n          int
	q1, q2, q3 float64
}

func summarize(xs []float64) side {
	q1, q2, q3 := quartiles(xs)
	return side{n: len(xs), q1: q1, q2: q2, q3: q3}
}

func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.q2)
}

// judge compares the repetitions of one metric. B is worse when its
// median is worse than A's by more than the metric's bound. Otherwise,
// when either side's run-to-run spread is wider than the bound, the
// runs cannot tell "unchanged" from "regressed" and the row is
// unresolved, not ok.
func judge(workload string, def metricDef, a, b []float64) compareRow {
	row := compareRow{workload: workload, def: def, a: summarize(a), b: summarize(b)}
	row.spread = math.Max(row.a.spread(), row.b.spread())
	if row.a.q2 == 0 {
		row.verdict = verdictUnresolved
		return row
	}
	row.change = (row.b.q2 - row.a.q2) / math.Abs(row.a.q2)
	row.worseBy = row.change
	if def.Better == "higher" {
		row.worseBy = -row.change
	}
	switch {
	case row.worseBy > def.Bound:
		row.verdict = verdictWorse
	case row.spread > def.Bound:
		row.verdict = verdictUnresolved
	default:
		row.verdict = verdictOK
	}
	return row
}

// values collects one metric's values over the matching runs of recs.
func values(recs []runRecord, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// digestMismatches lists every digest entry that differs between two
// runs of the same workload and seed, within or across the files: for
// equal seeds, counts, simulated-time outcomes and content hashes must
// repeat exactly.
func digestMismatches(a, b []runRecord) []string {
	type key struct {
		workload string
		seed     int64
	}
	first := make(map[key]*runRecord)
	var out []string
	all := append(append([]runRecord(nil), a...), b...)
	for i := range all {
		r := &all[i]
		if len(r.Digest) == 0 {
			continue
		}
		k := key{r.Workload, r.Seed}
		ref, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		names := make(map[string]bool)
		for n := range ref.Digest {
			names[n] = true
		}
		for n := range r.Digest {
			names[n] = true
		}
		for _, n := range sortedKeys(names) {
			if ref.Digest[n] != r.Digest[n] {
				out = append(out, fmt.Sprintf("%s seed %d: digest %s is %q in one run and %q in another",
					r.Workload, r.Seed, n, ref.Digest[n], r.Digest[n]))
			}
		}
	}
	return out
}

// compareRecords builds the end-to-end rows, the informational
// per-layer rows, and the list of problems that make the comparison
// fail besides a worse row.
func compareRecords(spec *benchSpec, a, b []runRecord) (rows, layers []compareRow, problems []string) {
	for _, w := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			va, vb := values(a, w.Name, false, def.Name), values(b, w.Name, false, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				problems = append(problems, fmt.Sprintf("%s %s: %d runs in A, %d in B", w.Name, def.Name, len(va), len(vb)))
				continue
			}
			rows = append(rows, judge(w.Name, def, va, vb))
		}
		for _, def := range spec.PerLayer {
			va, vb := values(a, w.Name, true, def.Name), values(b, w.Name, true, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(w.Name, def, va, vb)
			if row.a.q2 == 0 && row.b.q2 == 0 {
				continue // a layer this workload never calls
			}
			layers = append(layers, row)
		}
	}
	for _, recs := range [][]runRecord{a, b} {
		for _, r := range recs {
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	problems = append(problems, digestMismatches(a, b)...)
	return rows, layers, problems
}

func compareCommand(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "BENCHMARK.json", "path to BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare takes two result files")
	}
	spec, err := loadBenchSpec(*benchmark)
	if err != nil {
		return err
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, layers, problems := compareRecords(spec, a, b)
	worse := printRows(out, "end-to-end (A = "+fs.Arg(0)+", B = "+fs.Arg(1)+")", rows, true)
	if len(layers) > 0 {
		printRows(out, "per-layer, from the traced runs (no bound: read them to see where a change landed)", layers, false)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "PROBLEM:", p)
	}
	if worse > 0 || len(problems) > 0 {
		return fmt.Errorf("%d rows worse, %d problems", worse, len(problems))
	}
	return nil
}

// printRows renders rows as a table and returns how many are worse.
func printRows(out io.Writer, title string, rows []compareRow, verdicts bool) int {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintln(out, title)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	header := "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange"
	if verdicts {
		header += "\tspread\tbound\tverdict"
	}
	fmt.Fprintln(tw, header)
	worse := 0
	for _, r := range rows {
		line := fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%+.1f%%", r.workload, r.def.Name, r.def.Unit, r.a, r.b, 100*r.change)
		if verdicts {
			line += fmt.Sprintf("\t%.1f%%\t%.0f%%\t%s", 100*r.spread, 100*r.def.Bound, r.verdict)
			if r.verdict == verdictWorse {
				worse++
			}
		}
		fmt.Fprintln(tw, line)
	}
	_ = tw.Flush() // out is a terminal or a test buffer
	fmt.Fprintln(out, strings.Repeat("-", 8))
	return worse
}

func (s side) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.q2, s.q1, s.q3, s.n)
}
