package checks

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// repoChecksDir is the committed seed tree at the repository root.
const repoChecksDir = "../../checks"

func loadRepoTree(t *testing.T) *Tree {
	t.Helper()
	tree, err := LoadTree(repoChecksDir)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestLoadRepoTree pins the committed seed tree's shape: both classes
// load, every case validates, and the ci-small class carries the five
// canonical scenarios.
func TestLoadRepoTree(t *testing.T) {
	tree := loadRepoTree(t)
	if len(tree.Order) != 2 || tree.Order[0] != "ci-small" || tree.Order[1] != "typical" {
		t.Fatalf("classes = %v, want [ci-small typical]", tree.Order)
	}
	ci := tree.Classes["ci-small"]
	wantCases := []string{"antagonist_heavy", "blackout_chaos", "quiet_fleet", "restart_chaos", "shard_blackout"}
	if len(ci.Cases) != len(wantCases) {
		t.Fatalf("ci-small has %d cases, want %d", len(ci.Cases), len(wantCases))
	}
	for i, want := range wantCases {
		if ci.Cases[i].Name != want {
			t.Errorf("ci-small case[%d] = %q, want %q", i, ci.Cases[i].Name, want)
		}
	}
	if ci.Machine.MinCPUs != 1 || tree.Classes["typical"].Machine.MinCPUs != 8 {
		t.Errorf("min_cpus: ci-small=%d typical=%d", ci.Machine.MinCPUs, tree.Classes["typical"].Machine.MinCPUs)
	}
	// Every case must inherit the class RSS ceiling or declare its own.
	for _, name := range tree.Order {
		for _, cs := range tree.Classes[name].Cases {
			if cs.Budgets.MaxPeakRSSMB == nil {
				t.Errorf("%s/%s has no peak-RSS budget after inheritance", name, cs.Name)
			}
		}
	}
}

func TestSelectClass(t *testing.T) {
	tree := loadRepoTree(t)
	for _, tc := range []struct {
		cpus int
		want string
	}{
		{1, "ci-small"}, {4, "ci-small"}, {8, "typical"}, {64, "typical"},
	} {
		cl, err := tree.SelectClass(tc.cpus)
		if err != nil {
			t.Fatalf("SelectClass(%d): %v", tc.cpus, err)
		}
		if cl.Machine.Name != tc.want {
			t.Errorf("SelectClass(%d) = %s, want %s", tc.cpus, cl.Machine.Name, tc.want)
		}
	}
	if _, err := (&Tree{}).SelectClass(1); err == nil {
		t.Error("empty tree selected a class")
	}
}

func TestLoadTreeErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadTree(dir); err == nil {
		t.Error("empty tree loaded without error")
	}

	// A class whose machine.json name disagrees with its directory.
	cdir := filepath.Join(dir, "classa")
	if err := os.MkdirAll(filepath.Join(cdir, "cases"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "machine.json"), []byte(`{"name": "classb"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(dir); err == nil {
		t.Error("class/directory name mismatch loaded without error")
	}

	// Fixed name but zero cases.
	if err := os.WriteFile(filepath.Join(cdir, "machine.json"), []byte(`{"name": "classa"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(dir); err == nil {
		t.Error("class with zero cases loaded without error")
	}

	// A file the strict decoder refuses is named in the error, with the
	// key at fault.
	casePath := filepath.Join(cdir, "cases", "demo", "case.json")
	if err := os.MkdirAll(filepath.Dir(casePath), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, src, key string }{
		{casePath, string(caseSrc(minimalCase, `"wramup": "1m"`)), "wramup"},
		{casePath, string(caseSrc(minimalCase, `"seed": 1, "seed": 2`)), "seed"},
		{filepath.Join(cdir, "machine.json"), `{"min_cpus": 1, "min_cpus": 2}`, "min_cpus"},
	} {
		if err := os.WriteFile(tc.path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadTree(dir)
		if err == nil || !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: error %v does not name the file and %q", tc.src, err, tc.key)
		}
	}
}

// TestRunCaseQuietFleet runs the committed quiet_fleet case end to end
// and expects its committed budgets to hold — all but the wall-clock
// ones, which only CI's smoke step (cpi2bench check on the same case)
// judges: tier-1 asserts nothing about the host's speed.
func TestRunCaseQuietFleet(t *testing.T) {
	tree := loadRepoTree(t)
	ci := tree.Classes["ci-small"]
	var quiet *Case
	for _, cs := range ci.Cases {
		if cs.Name == "quiet_fleet" {
			quiet = cs
		}
	}
	if quiet == nil {
		t.Fatal("quiet_fleet case missing")
	}
	v, err := RunCase(ci.Machine, quiet, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range v.Checks {
		if !c.Pass && c.Budget != "min_steps_per_sec" && c.Budget != "min_realtime_factor" {
			t.Errorf("quiet_fleet budget %s: measured %g vs limit %g", c.Budget, c.Measured, c.Limit)
		}
	}
	if v.SchemaVersion != VerdictSchemaVersion || v.Class != "ci-small" || v.Case != "quiet_fleet" {
		t.Errorf("verdict identity: %+v", v)
	}
	if v.Measured.Ticks != 300 || v.Measured.SimSeconds != 300 {
		t.Errorf("measured window: ticks=%d sim=%g", v.Measured.Ticks, v.Measured.SimSeconds)
	}
	if v.Measured.CapsTotal != 0 || v.Measured.FalseCaps != 0 {
		t.Errorf("quiet fleet capped: %+v", v.Measured)
	}
	if v.Measured.SpecStalenessP95Seconds <= 0 {
		t.Error("no spec staleness observed — warmup spec push missing?")
	}

	// Round-trip through the artifact file.
	dir := t.TempDir()
	path, err := v.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "VERDICT_ci-small__quiet_fleet.json" {
		t.Errorf("artifact name %q", filepath.Base(path))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Verdict
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != VerdictSchemaVersion || back.Measured != v.Measured {
		t.Errorf("verdict did not round-trip: %+v", back)
	}
}

// TestRunCaseBudgetTightening is the acceptance check: tightening one
// budget makes exactly that budget fail, with the measured value in
// the verdict.
func TestRunCaseBudgetTightening(t *testing.T) {
	tree := loadRepoTree(t)
	ci := tree.Classes["ci-small"]
	quiet := *ci.Cases[2] // quiet_fleet (order pinned by TestLoadRepoTree)
	if quiet.Name != "quiet_fleet" {
		t.Fatal("case order changed")
	}
	impossible := 1e12
	budgets := quiet.Budgets
	budgets.MinStepsPerSec = &impossible
	quiet.Budgets = budgets

	v, err := RunCase(ci.Machine, &quiet, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("verdict passed with an impossible steps/sec floor")
	}
	var failed []string
	for _, c := range v.Checks {
		if !c.Pass {
			failed = append(failed, c.Budget)
			if c.Budget == "min_steps_per_sec" {
				if c.Limit != impossible {
					t.Errorf("failing check limit = %g", c.Limit)
				}
				if c.Measured != v.Measured.StepsPerSec || c.Measured <= 0 {
					t.Errorf("failing check measured = %g, verdict %g", c.Measured, v.Measured.StepsPerSec)
				}
			}
		}
	}
	if len(failed) != 1 || failed[0] != "min_steps_per_sec" {
		t.Errorf("failed budgets = %v, want exactly [min_steps_per_sec]", failed)
	}
}

// TestRunCaseDeterministicMeasures verifies that everything except
// wall-clock-derived fields is identical across two runs of the same
// case — the FaultStats/incident/staleness side of a verdict is a
// deterministic function of the case.
func TestRunCaseDeterministicMeasures(t *testing.T) {
	tree := loadRepoTree(t)
	ci := tree.Classes["ci-small"]
	var restart *Case
	for _, cs := range ci.Cases {
		if cs.Name == "restart_chaos" {
			restart = cs
		}
	}
	if restart == nil {
		t.Fatal("restart_chaos case missing")
	}
	run := func() Measured {
		v, err := RunCase(ci.Machine, restart, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := v.Measured
		// Blank the timing-dependent fields.
		m.StepsPerSec, m.RealtimeFactor, m.WallSeconds = 0, 0, 0
		m.AllocsPerStep, m.PeakRSSMB = 0, 0
		return m
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("deterministic measures differ:\n%+v\n%+v", a, b)
	}
	if a.Quarantined == 0 {
		t.Error("restart_chaos quarantined nothing — corrupt injection dead?")
	}
}

func TestRunCaseValidation(t *testing.T) {
	mc := &MachineClass{Name: "c", MinCPUs: 1}
	cs := &Case{Name: "bad", Duration: time.Minute, Scenario: cluster.Scenario{Tick: time.Second}}
	if _, err := RunCase(mc, cs, RunOptions{}); err == nil {
		t.Error("invalid case ran without error")
	}
}
