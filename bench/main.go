// Command bench is the repository benchmark: four workloads over the
// two loops the ROADMAP names — the cluster simulator's Cluster.Step and
// the deployable agent → spool → TCP → aggregator → spec-push path —
// each reporting the end-to-end metrics of BENCHMARK.json and, in a
// separate traced run, the per-layer metrics measured from outside the
// program. See README.md in this directory.
//
// Usage:
//
//	go run ./bench run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F]
//	go run ./bench compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCommand(os.Args[2:])
	case "compare":
		err = compareCommand(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F] [-benchmark BENCHMARK.json] [-outdir bench/out]
  bench compare [-benchmark BENCHMARK.json] A.json B.json`)
	os.Exit(2)
}

// runOpts are the knobs of one run. Only seed reaches the program under
// test, as the cluster seed or through the generated samples.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
}

func runCommand(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (empty: each one, in its own child process)")
	seed := fs.Int64("seed", 1, "seed for the cluster and the sample generator")
	seconds := fs.Int("seconds", 0, "seconds to measure for (0: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans around each layer and reports the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this JSON file")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "path to BENCHMARK.json")
	outDir := fs.String("outdir", "bench/out", "directory for trace files")
	attempt := fs.Int("attempt", 1, "which attempt this is (set by the benchmark itself when it repeats a run the hypervisor disturbed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	spec, err := loadBenchSpec(*benchmark)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *workload == "" {
		return runEachInChild(spec, args)
	}
	wc, ok := defaultWorkloads()[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	rec, err := runOne(spec, *workload, wc, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		return err
	}
	if rec.StealShare > maxRunSteal && *attempt < maxAttempts {
		return repeatRun(rec, args, *attempt)
	}
	printRecord(os.Stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := rec.line()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", rec.Workload, rec.Failed, rec.Attempted)
	}
	return nil
}

// Past a third of the CPU time stolen the steal adjustment under-corrects
// (runs that lost 31–50 % still read 45–60 % slow after it), so such a
// run is repeated, a few seconds later and at most twice, rather than
// reported. Storms pass; a quiet host never gets here.
const (
	maxRunSteal = 0.30
	maxAttempts = 3
	retryAfter  = 5 * time.Second
)

// repeatRun replaces this process with a fresh one running the same
// command as the next attempt, so the repetition starts from a fresh
// heap and leaves no process behind.
func repeatRun(rec *runRecord, args []string, attempt int) error {
	fmt.Printf("%s: attempt %d lost %.0f%% of its CPU time to the hypervisor; repeating in %v\n",
		rec.Workload, attempt, 100*rec.StealShare, retryAfter)
	time.Sleep(retryAfter)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	argv := append(append([]string{self, "run"}, args...), "-attempt", strconv.Itoa(attempt+1))
	return syscall.Exec(self, argv, os.Environ())
}

// runEachInChild runs every workload of BENCHMARK.json in a fresh child
// process, one after the other, so neither peak RSS nor GC state leaks
// from one workload into the next.
func runEachInChild(spec *benchSpec, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range spec.Workloads {
		cmd := exec.Command(self, append(append([]string{"run"}, args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// workloadConfig is one workload's sizes; exactly one field is set.
type workloadConfig struct {
	sim    *simConfig
	daemon *daemonConfig
}

func defaultWorkloads() map[string]workloadConfig {
	return map[string]workloadConfig{
		simFleetConfig.name:       {sim: &simFleetConfig},
		simAntagonistConfig.name:  {sim: &simAntagonistConfig},
		daemonIngestConfig.name:   {daemon: &daemonIngestConfig},
		daemonSpecPushConfig.name: {daemon: &daemonSpecPushConfig},
	}
}

// runOne runs one workload in this process and returns its record.
func runOne(spec *benchSpec, name string, wc workloadConfig, opts runOpts) (*runRecord, error) {
	defs := spec.EndToEnd
	if opts.trace {
		defs = spec.PerLayer
	}
	ms := newMetricSet(defs)
	o := &outcome{}
	budget := time.Duration(opts.seconds) * time.Second
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var err error
	switch {
	case wc.sim != nil && opts.trace:
		err = runSimTraced(*wc.sim, opts.seed, budget, ms, o, tr)
	case wc.sim != nil:
		err = runSimEndToEnd(*wc.sim, opts.seed, budget, ms, o)
	case wc.daemon != nil:
		err = runDaemon(*wc.daemon, opts.seed, budget, ms, o, tr)
	default:
		err = fmt.Errorf("workload %q has no configuration", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if tr != nil {
		path, err := tr.write(opts.outDir, name, opts.seed)
		if err != nil {
			return nil, err
		}
		o.note("%d spans written to %s", len(tr.spans), path)
	}
	if o.attempted < 1 {
		o.attempted = 1
	}
	windows := make([][4]float64, len(o.windows))
	for i, w := range o.windows {
		windows[i] = [4]float64{ms64(w.wall), w.cpu * 1000, float64(w.steal), float64(w.samples)}
	}
	return &runRecord{
		Workload:   name,
		StealShare: o.stealShare,
		Windows:    windows,
		Trace:      opts.trace,
		Seed:       opts.seed,
		Seconds:    opts.seconds,
		Env:        currentEnv(),
		Correct:    o.failed == 0,
		Attempted:  o.attempted,
		Failed:     o.failed,
		Metrics:    ms.values,
		Digest:     o.digest,
		Failures:   o.failures,
		Notes:      o.notes,
	}, nil
}

// printRecord renders a record for people; the machine-readable line
// follows it on standard output.
func printRecord(w *os.File, rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s  %s  seed=%d seconds=%d  nproc=%d GOMAXPROCS=%d C=%d %s commit=%s\n",
		rec.Workload, kind, rec.Seed, rec.Seconds, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.C, rec.Env.GoVersion, rec.Env.Commit)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		n := ""
		if m.N > 0 {
			n = "  n=" + strconv.Itoa(m.N)
		}
		fmt.Fprintf(w, "  %-44s %16.6g %-10s%s\n", name, m.Value, m.Unit, n)
	}
	for _, k := range sortedKeys(rec.Digest) {
		fmt.Fprintf(w, "  digest %-28s %s\n", k, rec.Digest[k])
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  ops_failed_ratio %d/%d\n", rec.Failed, rec.Attempted)
}
