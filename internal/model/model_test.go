package model

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestTaskIDString(t *testing.T) {
	id := TaskID{Job: "websearch-leaf", Index: 42}
	if got := id.String(); got != "websearch-leaf/42" {
		t.Errorf("String = %q", got)
	}
}

// TestTaskIDCompareMatchesString pins Compare to the order of the
// String forms, and String to the "%s/%d" bytes, over seeded job names
// built from '/', '-', digits and letters (so "a" vs "a-1", "a/1" vs
// "a" and "j/12" vs "j/9" all occur), names where one is a prefix of
// the other, negative and multi-digit indices, and names longer than
// the stack buffer.
func TestTaskIDCompareMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "ab/-019"
	name := func() JobName {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(20) == 0 {
			b.WriteString(strings.Repeat("x", 60+rng.Intn(10)))
		}
		return JobName(b.String())
	}
	index := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(10)
		case 1:
			return rng.Intn(1000)
		case 2:
			return -rng.Intn(100)
		}
		return rng.Int()
	}
	sign := func(c int) int { return max(-1, min(1, c)) }
	for i := 0; i < 20000; i++ {
		a := TaskID{Job: name(), Index: index()}
		b := TaskID{Job: name(), Index: index()}
		switch rng.Intn(4) {
		case 0: // one name a prefix of the other
			b.Job = a.Job + name()
		case 1:
			b.Job = a.Job
		}
		if got, want := a.String(), fmt.Sprintf("%s/%d", a.Job, a.Index); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		want := strings.Compare(a.String(), b.String())
		if got := a.Compare(b); sign(got) != want {
			t.Fatalf("%q.Compare(%q) = %d, want %d", a, b, got, want)
		}
		if got := b.Compare(a); sign(got) != -want {
			t.Fatalf("%q.Compare(%q) = %d, want %d", b, a, got, -want)
		}
	}
	a, b := TaskID{Job: "websearch-leaf", Index: 42}, TaskID{Job: "websearch-leaf", Index: 417}
	if n := testing.AllocsPerRun(100, func() { _ = a.Compare(b) }); n != 0 {
		t.Errorf("Compare allocates %v times per call, want 0", n)
	}
}

// FuzzTaskIDRoundTrip: a task's cgroup is named by its ID's String
// form, and names read from outside the program (operator verbs, the
// cap journal) are parsed back. For any task with a job name the parse
// gives the task back, without allocating; no string makes ParseTaskID
// panic, and a string it accepts is its task's String form. The
// sampler orders counters by Compare, so on every fuzzed pair, on the
// pair whose second job extends the first, and on the pair sharing the
// first's job, Compare orders as the String forms do.
func FuzzTaskIDRoundTrip(f *testing.F) {
	f.Add("websearch-leaf", 42, "websearch", 417)
	f.Add("a/b", 0, "a", 10)
	f.Add("j/", -7, "j-", 7)
	f.Add("/", math.MaxInt, "//", 0)
	f.Add("x", math.MinInt, "x/1", 9)
	f.Add("j/+1", 1, "/1", 10)
	f.Add("web", 9, "-x", 10)
	f.Fuzz(func(t *testing.T, job string, index int, other string, otherIndex int) {
		if got, err := ParseTaskID(job); err == nil && got.String() != job {
			t.Fatalf("ParseTaskID(%q) accepted %+v, whose name is %q", job, got, got.String())
		}
		a := TaskID{Job: JobName(job), Index: index}
		for _, b := range []TaskID{
			{Job: JobName(other), Index: otherIndex},
			{Job: JobName(job + other), Index: otherIndex},
			{Job: JobName(job), Index: otherIndex},
		} {
			want := strings.Compare(a.String(), b.String())
			if got := a.Compare(b); max(-1, min(1, got)) != want {
				t.Fatalf("%q.Compare(%q) = %d, want %d", a, b, got, want)
			}
		}
		if job == "" {
			return
		}
		name := a.String()
		if got, err := ParseTaskID(name); err != nil || got != a {
			t.Fatalf("ParseTaskID(%q) = %+v, %v; want %+v", name, got, err, a)
		}
		if n := testing.AllocsPerRun(1, func() { _, _ = ParseTaskID(name) }); n != 0 {
			t.Errorf("ParseTaskID(%q) allocates %v times", name, n)
		}
	})
}

func TestPriorityString(t *testing.T) {
	cases := map[Priority]string{
		PriorityBestEffort: "best-effort",
		PriorityBatch:      "batch",
		PriorityProduction: "production",
		Priority(99):       "priority(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if !PriorityProduction.IsProduction() || PriorityBatch.IsProduction() {
		t.Error("IsProduction wrong")
	}
}

func TestJobClassString(t *testing.T) {
	if ClassBatch.String() != "batch" || ClassLatencySensitive.String() != "latency-sensitive" {
		t.Error("JobClass.String wrong")
	}
}

func TestJobPolicy(t *testing.T) {
	ls := Job{Name: "search", Class: ClassLatencySensitive, Priority: PriorityProduction}
	batch := Job{Name: "mr", Class: ClassBatch, Priority: PriorityBatch}
	be := Job{Name: "bg", Class: ClassBatch, Priority: PriorityBestEffort}
	optIn := Job{Name: "special-batch", Class: ClassBatch, ProtectionEligible: true}

	if !ls.Protected() || batch.Protected() {
		t.Error("Protected policy wrong")
	}
	if !optIn.Protected() {
		t.Error("explicit opt-in should be protected")
	}
	if ls.Throttleable() {
		t.Error("latency-sensitive jobs must never be throttled")
	}
	if !batch.Throttleable() || !be.Throttleable() {
		t.Error("batch jobs must be throttleable")
	}
}

func TestSpecOutlierThreshold(t *testing.T) {
	s := Spec{CPIMean: 1.8, CPIStddev: 0.16}
	if got := s.OutlierThreshold(2); math.Abs(got-2.12) > 1e-12 {
		t.Errorf("2σ threshold = %v", got)
	}
	if got := s.OutlierThreshold(3); math.Abs(got-2.28) > 1e-12 {
		t.Errorf("3σ threshold = %v", got)
	}
}

func TestSpecRobust(t *testing.T) {
	// The paper's gates: ≥5 tasks and ≥100 samples per task.
	cases := []struct {
		name string
		spec Spec
		want bool
	}{
		{"plenty", Spec{NumTasks: 100, NumSamples: 100000}, true},
		{"exactly at gates", Spec{NumTasks: 5, NumSamples: 500}, true},
		{"too few tasks", Spec{NumTasks: 4, NumSamples: 100000}, false},
		{"too few samples", Spec{NumTasks: 10, NumSamples: 999}, false},
		{"zero tasks", Spec{NumTasks: 0, NumSamples: 1000}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.spec.Robust(5, 100); got != c.want {
				t.Errorf("Robust = %v, want %v", got, c.want)
			}
		})
	}
}

func TestSpecKey(t *testing.T) {
	s := Spec{Job: "j", Platform: PlatformB}
	k := s.Key()
	if k.Job != "j" || k.Platform != PlatformB {
		t.Errorf("Key = %+v", k)
	}
	if k.String() != "j@amd-interlagos-2.1GHz" {
		t.Errorf("Key.String = %q", k.String())
	}
}
