package checks

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// minimalCase is the smallest valid case, as the members of a JSON
// object; caseSrc wraps them (and any more) in the braces.
const minimalCase = `"description": "demo", "duration": "2m", "fleet": {"machines": 4},
	"workload": [{"kind": "quiet_service", "name": "svc", "tasks": 4, "cpu": 0.5}]`

func caseSrc(members ...string) []byte {
	return []byte("{" + strings.Join(members, ", ") + "}")
}

func TestDecodeCaseDefaults(t *testing.T) {
	cs, err := decodeCase("demo", caseSrc(minimalCase))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "demo" || cs.Seed != 1 || cs.Tick != time.Second {
		t.Errorf("defaults: name=%q seed=%d tick=%v", cs.Name, cs.Seed, cs.Tick)
	}
	if cs.Fleet.CPUsPerMachine != 16 {
		t.Errorf("cpus_per_machine default = %d", cs.Fleet.CPUsPerMachine)
	}
	if cs.MinSamplesPerTask != 8 {
		t.Errorf("min_samples_per_task default = %d", cs.MinSamplesPerTask)
	}
	if cs.Duration != 2*time.Minute || cs.Warmup != 0 {
		t.Errorf("durations: duration=%v warmup=%v", cs.Duration, cs.Warmup)
	}
	w := cs.Workload[0]
	if w.Lands() || w.ExpectsCaps() {
		t.Errorf("quiet_service defaults: after_warmup=%v expect_caps=%v", w.Lands(), w.ExpectsCaps())
	}
}

func TestDecodeCaseAntagonistDefaults(t *testing.T) {
	cs, err := decodeCase("demo", caseSrc(`"duration": "1m", "fleet": {"machines": 2}, "workload": [
		{"kind": "antagonist", "name": "video", "tasks": 2, "cpu": 7},
		{"kind": "antagonist", "name": "tame", "tasks": 2, "cpu": 7, "after_warmup": false, "expect_caps": false}]`))
	if err != nil {
		t.Fatal(err)
	}
	w := cs.Workload[0]
	if !w.Lands() || !w.ExpectsCaps() {
		t.Errorf("antagonist defaults: after_warmup=%v expect_caps=%v", w.Lands(), w.ExpectsCaps())
	}
	if w = cs.Workload[1]; w.Lands() || w.ExpectsCaps() {
		t.Errorf("antagonist with both flags set false: after_warmup=%v expect_caps=%v", w.Lands(), w.ExpectsCaps())
	}
	if got := cs.expectedCapJobs(); !got["video"] || got["tame"] {
		t.Errorf("expected cap set = %v, want video only", got)
	}
}

func TestDecodeCaseErrors(t *testing.T) {
	const fleet2 = `"duration": "1m", "fleet": {"machines": 2}`
	cases := []struct {
		name    string
		src     []byte
		wantErr string
	}{
		{"name mismatch", caseSrc(`"name": "other"`, minimalCase), "does not match"},
		{"missing fleet", caseSrc(`"duration": "1m", "workload": [{"kind": "bimodal", "name": "b", "tasks": 1}]`), "fleet"},
		{"missing workload", caseSrc(fleet2), "workload"},
		{"unknown budget", caseSrc(minimalCase, `"budgets": {"max_typo": 3}`), "max_typo"},
		{"unknown key", caseSrc(minimalCase, `"wramup": "1m"`), "wramup"},
		{"duplicate key", caseSrc(minimalCase, `"seed": 1, "seed": 2`), `duplicate key "seed"`},
		{"duplicate nested key", caseSrc(minimalCase, `"budgets": {"max_false_caps": 0, "max_false_caps": 9}`), `duplicate key "max_false_caps"`},
		{"bad duration", caseSrc(minimalCase, `"warmup": "ten minutes"`), "warmup"},
		{"bare duration", caseSrc(minimalCase, `"warmup": 600`), "warmup"},
		{"trailing data", append(caseSrc(minimalCase), "{}"...), "after"},
		{"bad chaos", caseSrc(minimalCase, `"chaos": "frobnicate=1"`), "chaos"},
		{"zero machines", caseSrc(`"duration": "1m", "fleet": {"machines": 0}, "workload": [{"kind": "bimodal", "name": "b", "tasks": 1}]`), "machines"},
		{"negative budget", caseSrc(minimalCase, `"budgets": {"max_false_caps": -1}`), "negative"},
		{"duplicate job", caseSrc(fleet2, `"workload": [{"kind": "bimodal", "name": "b", "tasks": 1},
			{"kind": "batch", "name": "b", "tasks": 1, "cpu": 0.5}]`), "duplicate"},
		{"unknown kind", caseSrc(fleet2, `"workload": [{"kind": "mystery", "name": "m", "tasks": 1}]`), "unknown workload kind"},
		{"websearch needs tiers", caseSrc(fleet2, `"workload": [{"kind": "websearch", "name": "ws"}]`), "leaves"},
		{"unknown priority", caseSrc(fleet2, `"workload": [{"kind": "batch", "name": "b", "tasks": 1, "cpu": 0.5, "priority": "urgent"}]`), "priority"},
		// A duration shorter than a tick measured zero steps and passed
		// vacuously, with an unwritable +Inf allocs_per_step.
		{"duration under a tick", caseSrc(`"description": "demo", "duration": "500ms", "fleet": {"machines": 4},
			"workload": [{"kind": "quiet_service", "name": "svc", "tasks": 4, "cpu": 0.5}]`), "duration"},
		{"duration not whole ticks", caseSrc(`"duration": "90s", "tick": "60s", "fleet": {"machines": 2},
			"workload": [{"kind": "bimodal", "name": "b", "tasks": 1}]`), "duration"},
		// Run truncated a warmup that was not a whole number of ticks.
		{"warmup not whole ticks", caseSrc(minimalCase, `"warmup": "10m500ms"`), "warmup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeCase("demo", tc.src)
			if err == nil {
				t.Fatalf("decode succeeded, want error about %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The machine-class file goes through the same strict decoder.
func TestDecUnknownKeyRejected(t *testing.T) {
	if _, err := decodeMachineClass("x", []byte(`{"name": "x", "bogus_key": 1}`)); err == nil || !strings.Contains(err.Error(), "bogus_key") {
		t.Errorf("unknown key not rejected: %v", err)
	}
}

// Every kind of value a file can hold lands in its typed field, and a
// key the file leaves out keeps its default.
func TestDecTypedAccess(t *testing.T) {
	cs, err := decodeCase("demo", caseSrc(`"seed": 7, "tick": "90s", "duration": "3m", "report_only": true,
		"chaos": "corrupt=0.5", "fleet": {"machines": 2, "platform_b_fraction": 0.25},
		"workload": [{"kind": "batch", "name": "b", "tasks": 1, "cpu": 2.5, "expect_caps": true}],
		"budgets": {"max_false_caps": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	w := cs.Workload[0]
	if cs.Seed != 7 || cs.Tick != 90*time.Second || !cs.ReportOnly || cs.Chaos != "corrupt=0.5" ||
		cs.Fleet.PlatformBFraction != 0.25 || w.CPU != 2.5 || !w.ExpectsCaps() || w.Lands() {
		t.Errorf("decoded %+v, workload %+v", cs, w)
	}
	if b := cs.Budgets; b.MaxFalseCaps == nil || *b.MaxFalseCaps != 0 || b.MaxQuarantined != nil {
		t.Errorf("budgets: a 0 limit must be set and an absent one nil: %+v", b)
	}
	if cs.MinSamplesPerTask != 8 || cs.Fleet.CPUsPerMachine != 16 {
		t.Errorf("absent keys lost their defaults: %+v", cs)
	}
}

// Case embeds cluster.Scenario, whose UnmarshalJSON would be promoted
// to Case. Case's own keys must land in Case's fields — through the
// strict decoder and through plain json.Unmarshal alike — and still be
// refused when misspelt.
func TestCaseKeysNotSwallowedByScenario(t *testing.T) {
	src := caseSrc(`"name": "demo", "description": "d", "duration": "3m", "budgets": {"min_incidents": 2}`,
		`"seed": 5, "warmup": "1m", "fleet": {"machines": 2}, "workload": [{"kind": "bimodal", "name": "b", "tasks": 1}]`)
	strict, err := decodeCase("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	var plain Case
	if err := json.Unmarshal(src, &plain); err != nil {
		t.Fatal(err)
	}
	for _, cs := range []*Case{strict, &plain} {
		if cs.Name != "demo" || cs.Description != "d" || cs.Duration != 3*time.Minute ||
			cs.Budgets.MinIncidents == nil || *cs.Budgets.MinIncidents != 2 {
			t.Errorf("case keys lost: name=%q description=%q duration=%v budgets=%+v", cs.Name, cs.Description, cs.Duration, cs.Budgets)
		}
		if cs.Seed != 5 || cs.Warmup != time.Minute || cs.Fleet.Machines != 2 || len(cs.Workload) != 1 {
			t.Errorf("scenario keys lost: %+v", cs.Scenario)
		}
	}
	if err := json.Unmarshal(caseSrc(minimalCase, `"budget": {}`), &plain); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("misspelt case key accepted: %v", err)
	}
}

func TestDecTypeMismatch(t *testing.T) {
	if _, err := decodeMachineClass("x", []byte(`{"min_cpus": "notanumber"}`)); err == nil || !strings.Contains(err.Error(), "min_cpus") {
		t.Errorf("non-integer min_cpus accepted: %v", err)
	}
	if _, err := decodeCase("demo", caseSrc(minimalCase, `"seed": 1.5`)); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("fractional seed accepted: %v", err)
	}
}

func TestInheritDefaults(t *testing.T) {
	mc := &MachineClass{Name: "c", MaxPeakRSSMB: 512}
	cs, err := decodeCase("demo", caseSrc(minimalCase))
	if err != nil {
		t.Fatal(err)
	}
	cs.inheritDefaults(mc)
	if cs.Budgets.MaxPeakRSSMB == nil || *cs.Budgets.MaxPeakRSSMB != 512 {
		t.Errorf("class default not inherited: %v", cs.Budgets.MaxPeakRSSMB)
	}

	own := 64.0
	cs2, err := decodeCase("demo", caseSrc(minimalCase, `"budgets": {"max_peak_rss_mb": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	cs2.inheritDefaults(mc)
	if cs2.Budgets.MaxPeakRSSMB == nil || *cs2.Budgets.MaxPeakRSSMB != own {
		t.Errorf("case budget overridden by class default: %v", cs2.Budgets.MaxPeakRSSMB)
	}
}

func TestBudgetsEvaluateDirections(t *testing.T) {
	lim := func(v float64) *float64 { return &v }
	m := Measured{StepsPerSec: 100, FalseCaps: 1, Quarantined: 5}

	b := Budgets{MinStepsPerSec: lim(50), MaxFalseCaps: lim(0), MinQuarantined: lim(1)}
	checks, pass := b.evaluate(m)
	if pass {
		t.Error("overall pass despite false cap over budget")
	}
	got := map[string]bool{}
	for _, c := range checks {
		got[c.Budget] = c.Pass
	}
	if !got["min_steps_per_sec"] || got["max_false_caps"] || !got["min_quarantined"] {
		t.Errorf("per-budget verdicts wrong: %v", got)
	}

	empty := Budgets{}
	checks, pass = empty.evaluate(m)
	if !pass || len(checks) != 0 {
		t.Errorf("no budgets should mean vacuous pass, got %v %v", checks, pass)
	}
}
