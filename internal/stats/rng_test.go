package stats

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// TestStreamBudget: a stream costs a few dozen bytes (16 of them PCG
// state), not the 4.9 KB table of rand.NewSource, and is still a pure
// function of (seed, name). Bytes, not timings, so it gates on any host.
func TestStreamBudget(t *testing.T) {
	const (
		streams = 1000
		budget  = 256 // bytes allocated per Stream call
		draws   = 1000
	)
	r := NewRNG(1)
	names := make([]string, streams)
	for i := range names {
		names[i] = "machine/" + strconv.Itoa(i)
	}
	kept := make([]*rand.Rand, streams)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, name := range names {
		kept[i] = r.Stream(name)
	}
	runtime.ReadMemStats(&after)
	perStream := (after.TotalAlloc - before.TotalAlloc) / streams
	t.Logf("%d B allocated per Stream", perStream)
	if perStream > budget {
		t.Errorf("%d B allocated per Stream, budget %d", perStream, budget)
	}

	seq := func(seed int64, name string) []float64 {
		s := NewRNG(seed).Stream(name)
		out := make([]float64, 0, 2*draws)
		for i := 0; i < draws; i++ {
			out = append(out, s.Float64(), s.NormFloat64())
		}
		return out
	}
	a, b, other := seq(7, "machine/1/noise"), seq(7, "machine/1/noise"), seq(7, "machine/2/noise")
	differ := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same (seed, name) gave %v and %v", i, a[i], b[i])
		}
		if a[i] != other[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("two names gave identical sequences")
	}
}

var streamSink *rand.Rand

// TestStreamMatchesRandNew: a stream, its generator and source made in
// one allocation, draws what rand.New over its own pcgSource draws, bit
// for bit, for the first 10,000 draws of each kind the simulator makes.
func TestStreamMatchesRandNew(t *testing.T) {
	r := NewRNG(56)
	draws := []struct {
		kind string
		draw func(*rand.Rand) uint64
	}{
		{"Float64", func(g *rand.Rand) uint64 { return math.Float64bits(g.Float64()) }},
		{"NormFloat64", func(g *rand.Rand) uint64 { return math.Float64bits(g.NormFloat64()) }},
		{"Intn", func(g *rand.Rand) uint64 { return uint64(g.Intn(1000)) }},
		{"Int63", func(g *rand.Rand) uint64 { return uint64(g.Int63()) }},
	}
	for _, name := range []string{"machine/machine-0001", "fault/machine-0042", ""} {
		for _, d := range draws {
			src := &pcgSource{}
			src.Seed(int64(derive(r.Seed(), name)))
			want, got := rand.New(src), r.Stream(name)
			for i := 0; i < 10000; i++ {
				if w, g := d.draw(want), d.draw(got); w != g {
					t.Fatalf("stream %q, %s draw %d: %#x, rand.New form %#x", name, d.kind, i, g, w)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { streamSink = r.Stream("machine/machine-0001") }); n != 1 {
		t.Errorf("Stream allocates %v times, want 1", n)
	}
}
