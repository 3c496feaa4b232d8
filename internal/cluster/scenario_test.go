package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// scenarioHash is the SHA-256 of the incident records and AllSpecs of
// the run TestScenarioStartMatchesHandBuilt pins. It is the value the
// hand-assembled reference produced before Scenario existed.
const scenarioHash = "60110b2cb59026426ca62f1a1134db1ef99831c2854c520121673fd92a2bd9c3"

// handBuiltReference assembles pinnedScenario's run by hand, in the
// order Start documents: build, place, warm up and recompute, land.
func handBuiltReference(t *testing.T) *Cluster {
	t.Helper()
	faults, err := ParseFaultPlan("loss=0.05")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{
		Seed: 5, Machines: 40, CPUsPerMachine: 16, PlatformBFraction: 0.3, Shards: 2,
		Params: core.Params{MinSamplesPerTask: 5},
		Faults: faults,
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	defs, tree := WebSearchJob("websearch", 40, 9, 2, c.RNG())
	for _, d := range defs {
		must(c.AddJob(d))
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	must(c.AddJob(QuietServiceJob("bigtable", 40, 0.8)))
	must(c.AddJob(BatchJob("logproc", 20, 0.5, model.PriorityBestEffort)))
	must(c.AddJob(MapReduceJob("sawmill", 10, 0.5, workload.ReactLameDuck)))
	must(c.AddJob(BimodalJob("bimodal", 8)))
	_, err = WarmUpSpecs(c, 10*time.Minute)
	must(err)
	must(c.AddJob(AntagonistJob("video", 10, 7, model.PriorityBatch)))
	return c
}

// pinnedScenario declares the same run: every kind, and an antagonist
// landing after the warm-up.
func pinnedScenario() *Scenario {
	return &Scenario{
		Seed: 5, Warmup: 10 * time.Minute, Chaos: "loss=0.05", MinSamplesPerTask: 5,
		Fleet: Fleet{Machines: 40, CPUsPerMachine: 16, PlatformBFraction: 0.3, Shards: 2},
		Workload: []WorkloadEntry{
			{Kind: "websearch", Name: "websearch", Leaves: 40, Mixers: 9, Roots: 2},
			{Kind: "quiet_service", Name: "bigtable", Tasks: 40, CPU: 0.8},
			{Kind: "batch", Name: "logproc", Tasks: 20, CPU: 0.5},
			{Kind: "mapreduce", Name: "sawmill", Tasks: 10, CPU: 0.5},
			{Kind: "bimodal", Name: "bimodal", Tasks: 8},
			{Kind: "antagonist", Name: "video", Tasks: 10, CPU: 7},
		},
	}
}

// runHash runs c ten simulated minutes past the warm-up and hashes
// what it detected and learned.
func runHash(t *testing.T, c *Cluster) string {
	t.Helper()
	defer c.Close()
	c.Run(10 * time.Minute)
	if len(c.Incidents()) == 0 {
		t.Fatal("no incidents: the pinned run must exercise detection")
	}
	b, err := json.Marshal(struct {
		Incidents []core.IncidentRecord
		Specs     []model.Spec
	}{core.IncidentRecords(c.Incidents()), c.AllSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestScenarioStartMatchesHandBuilt pins Start's order — place in
// declaration order, warm up, force a recompute, then land — against a
// hand-assembled reference and a hash both must reproduce.
func TestScenarioStartMatchesHandBuilt(t *testing.T) {
	if got := runHash(t, handBuiltReference(t)); got != scenarioHash {
		t.Fatalf("hand-built reference hash = %s, pinned %s", got, scenarioHash)
	}
	c, warm, err := pinnedScenario().Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	if !warm.At.Equal(epoch.Add(10*time.Minute)) || len(warm.Specs) == 0 || warm.Incidents != len(c.Incidents()) {
		t.Errorf("warm boundary: at %v, %d specs, %d incidents (cluster has %d)",
			warm.At, len(warm.Specs), warm.Incidents, len(c.Incidents()))
	}
	if got := runHash(t, c); got != scenarioHash {
		t.Errorf("Start hash = %s, hand-built %s", got, scenarioHash)
	}
}

func TestScenarioStartErrors(t *testing.T) {
	noSpecs := pinnedScenario()
	noSpecs.Warmup = time.Minute // one sample per task: nothing robust
	bad := pinnedScenario()
	bad.Workload[0].Leaves = 0
	for name, sc := range map[string]*Scenario{"no robust spec": noSpecs, "invalid": bad} {
		if c, _, err := sc.Start(Config{}); err == nil || c != nil {
			t.Errorf("%s: Start = %v, %v; want nil cluster and an error", name, c, err)
		}
	}
}
