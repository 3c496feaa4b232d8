package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// spanViewSHA256 pins spanViewHash: the rendered span view of a run that
// records every stage, computed before spans were stored as records,
// less the decision spans, which no store records.
const spanViewSHA256 = "6c82309c571783f38012b6a19bd77548428846a692d63043c74ef846e9a28ffd"

// spanViewHash runs a small faulted fleet that records all seven span
// stages — a shard blackout long enough for spool replay, delayed spec
// pushes and a landing antagonist — and stays inside the stores'
// retention horizon. It hashes the JSON of every store's Recent(0) and
// Recent(3), and of ByTrace for one sample trace and one spec trace.
func spanViewHash(t *testing.T) string {
	t.Helper()
	const machines = 12
	warm := 8 * time.Minute
	c := New(Config{
		Seed:              11,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.25,
		Shards:            2,
		Workers:           2,
		Params:            core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: 2 * time.Minute},
		Faults: &FaultPlan{
			SpecPushDelay:  20 * time.Second,
			ShardBlackouts: []ShardBlackoutEvent{{Shard: 0, Window: Window{From: warm + time.Minute, To: warm + 4*time.Minute}}},
			SpoolBatches:   8,
		},
	})
	defer c.Close()
	for _, d := range []JobDef{
		QuietServiceJob("bigtable", 2*machines, 0.8),
		BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort),
	} {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", machines/2, 9, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(7 * time.Minute)

	counts := c.SpanCounts()
	for _, stage := range trace.Stages {
		if counts[stage] == 0 {
			t.Fatalf("no %s spans: the run does not exercise every stage (%v)", stage, counts)
		}
	}
	type view struct {
		Recent, Last3 []trace.Span
	}
	stores := []*trace.Store{c.AggregatorTrace()}
	for _, n := range c.nodes {
		stores = append(stores, n.trace)
	}
	var views []view
	var sampleID, specID string
	for _, st := range stores {
		all := st.Recent(0)
		views = append(views, view{all, st.Recent(3)})
		for _, sp := range all {
			switch {
			case sampleID == "" && sp.Stage == trace.StageSpool:
				sampleID = sp.TraceID
			case specID == "" && sp.Stage == trace.StageSpecPush:
				specID = sp.TraceID
			}
		}
	}
	if sampleID == "" || specID == "" {
		t.Fatalf("no spool span (%q) or spec_push span (%q) retained", sampleID, specID)
	}
	var chains [][]trace.Span
	for _, st := range stores {
		chains = append(chains, st.ByTrace(sampleID), st.ByTrace(specID))
	}
	b, err := json.Marshal(struct {
		Views  []view
		Chains [][]trace.Span
	}{views, chains})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSpanViewPinned: what the span stores render — /debug/trace's
// Recent and ByTrace, Details and all — is byte-identical to the view
// pinned by spanViewSHA256, and Recent(n) is the tail of Recent(0).
func TestSpanViewPinned(t *testing.T) {
	if got := spanViewHash(t); got != spanViewSHA256 {
		t.Errorf("span view hash %s, pinned %s", got, spanViewSHA256)
	}
}
