package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// topologyGoldenSHA256 is the SHA-256 of the topology scenario's
// incident records and spec table, computed at the last commit that
// still had four sample paths (cf58202). That commit produced this hash
// for every {nil, empty plan} × {1, 3, 12 shards} × workers {1, 4}
// combination; pinning it here proves the one-path rewrite, and every
// later change to the path, byte-preserving across commits.
const topologyGoldenSHA256 = "5113dd388112d13b91c0acd65eb11c5299900f0d845b5e879d65c11cc5661166"

// topologyRun is the seeded 100-machine scenario: quiet service and
// batch noise warm the specs for 6 minutes, then 40 antagonists land
// and run for 8 minutes.
func topologyRun(t *testing.T, faults *FaultPlan, shards, workers int) (*Cluster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:              20130415,
		Machines:          100,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		Shards:            shards,
		Params:            core.Params{MinSamplesPerTask: 5},
		Registry:          reg,
		Faults:            faults,
	})
	t.Cleanup(c.Close)
	if err := c.AddJob(QuietServiceJob("bigtable", 200, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(BatchJob("logproc", 50, 0.5, model.PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, 6*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 40, 7, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Minute)
	return c, reg
}

// incidentsSpecsSHA256 hashes a run's incident records and spec table,
// the outcome every pinned-hash test compares across commits.
func incidentsSpecsSHA256(t *testing.T, c *Cluster) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(core.IncidentRecords(c.Incidents())); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(c.AllSpecs()); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTopologyEquivalence: the fault plan being nil or empty, the shard
// count, and the worker count select nothing — every combination runs
// the same Queue → Router → Spooler → link → Bus path and must produce
// the incident records and spec table the four-path code produced, byte
// for byte. The same runs check sample conservation, which is live on
// every run now that every run has spools and ingress validation.
func TestTopologyEquivalence(t *testing.T) {
	plans := []struct {
		name string
		plan func() *FaultPlan
	}{
		{"nil", func() *FaultPlan { return nil }},
		{"empty", func() *FaultPlan { return &FaultPlan{} }},
	}
	for _, p := range plans {
		for _, shards := range []int{1, 3, 12} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("plan=%s/shards=%d/workers=%d", p.name, shards, workers)
				t.Run(name, func(t *testing.T) {
					c, reg := topologyRun(t, p.plan(), shards, workers)

					if len(c.Incidents()) == 0 || len(c.AllSpecs()) == 0 {
						t.Fatalf("%d incidents, %d specs: the comparison is vacuous",
							len(c.Incidents()), len(c.AllSpecs()))
					}
					if got := incidentsSpecsSHA256(t, c); got != topologyGoldenSHA256 {
						t.Errorf("incidents+specs hash %s, want %s (%d incidents)",
							got, topologyGoldenSHA256, len(c.Incidents()))
					}

					// Conservation: every sample an agent published is
					// folded, dropped at the bus (quarantined samples are a
					// subset of those), evicted from a spool, eaten by a
					// lossy link, or still spooled. The spool and link terms
					// count batches and must be zero on a fault-free run.
					published := int64(core.NewMetrics(reg).SamplesObserved.Value())
					folded, dropped := c.PipelineStats()
					fs := c.FaultStats()
					if published == 0 || published != folded+dropped {
						t.Errorf("published %d != folded %d + dropped %d", published, folded, dropped)
					}
					if dropped != 0 || fs.Quarantined != 0 {
						t.Errorf("fault-free run dropped %d samples (%d quarantined)", dropped, fs.Quarantined)
					}
					if fs.SpoolDropped != 0 || fs.LostBatches != 0 || fs.SpooledBatches != 0 {
						t.Errorf("fault-free run: %d batches evicted, %d lost, %d still spooled",
							fs.SpoolDropped, fs.LostBatches, fs.SpooledBatches)
					}
				})
			}
		}
	}
}
