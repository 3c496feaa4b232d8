package stats

import (
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
