package workload

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestPercentile95MatchesSort: the selection returns the value the
// sort it replaced put at rank ⌈0.95n⌉, for every size from 1 to 2,000
// and inputs with ties, long runs of one value, and sorted, reversed
// and constant order.
func TestPercentile95MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 2000; n++ {
		xs := make([]float64, n)
		switch n % 5 {
		case 0: // distinct values in random order
			for i := range xs {
				xs[i] = rng.Float64() * 100
			}
		case 1: // heavy ties: a handful of values
			for i := range xs {
				xs[i] = float64(rng.Intn(4))
			}
		case 2: // runs of duplicates, ascending
			for i := range xs {
				xs[i] = float64(i / 7)
			}
		case 3: // runs of duplicates, descending
			for i := range xs {
				xs[i] = float64((n - i) / 13)
			}
		case 4: // one value throughout but for a few outliers
			for i := range xs {
				xs[i] = 30
			}
			for k := 0; k < n/50; k++ {
				xs[rng.Intn(n)] = 30 + rng.Float64()*60
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want := sorted[(n*95+99)/100-1]
		if got := percentile95(xs); got != want {
			t.Fatalf("n=%d (pattern %d): percentile95 = %v, sorted rank gives %v", n, n%5, got, want)
		}
	}
}

// searchFleet is a tree with leaves, intermediates and roots whose
// noise streams are seeded by position, so two fleets built alike
// report identical latencies.
func searchFleet(leaves, mids, roots int) (*SearchTree, []*SearchTask) {
	tree := NewSearchTree()
	var tasks []*SearchTask
	add := func(tier Tier, n int) {
		for i := 0; i < n; i++ {
			rng := rand.New(rand.NewSource(int64(len(tasks) + 1)))
			tasks = append(tasks, NewSearchTask(tier, tree, ConstantLoad(0.7), 2, 1, rng))
		}
	}
	add(TierLeaf, leaves)
	add(TierIntermediate, mids)
	add(TierRoot, roots)
	return tree, tasks
}

// TestSearchTreeConcurrentPublish: tasks delivering from four
// goroutines give the tree the tails a serial run gives, and each tail
// is the sorted-rank p95 of the latencies delivered that tick. A task
// that stops delivering leaves the member list at the next EndTick;
// when it delivers again it rejoins. Run under -race.
func TestSearchTreeConcurrentPublish(t *testing.T) {
	const workers = 4
	serial, serialTasks := searchFleet(120, 24, 3)
	par, parTasks := searchFleet(120, 24, 3)
	// paused reports whether task i skips tick k: every third leaf and
	// one root sit out ticks 4–7 and come back at tick 8.
	paused := func(i, k int) bool {
		return k >= 4 && k < 8 && (i%3 == 0 && i < 120 || i == 146)
	}
	cpi := func(i, k int) float64 { return 1 + float64((i*7+k*3)%11)/10 }
	now := t0
	for k := 0; k < 12; k++ {
		var active int
		var delivered [3][]float64
		for i, s := range serialTasks {
			if paused(i, k) {
				continue
			}
			active++
			s.Deliver(now, 1.4, time.Second, res(cpi(i, k)))
			delivered[s.Tier] = append(delivered[s.Tier], s.published)
		}
		serial.EndTick()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(parTasks); i += workers {
					if !paused(i, k) {
						parTasks[i].Deliver(now, 1.4, time.Second, res(cpi(i, k)))
					}
				}
			}(w)
		}
		wg.Wait()
		par.EndTick()

		for tier := TierLeaf; tier <= TierRoot; tier++ {
			sort.Float64s(delivered[tier])
			want := delivered[tier][(len(delivered[tier])*95+99)/100-1]
			if got := serial.tail(tier); got != want {
				t.Fatalf("tick %d %v: serial tail %v, sorted p95 of delivered %v", k, tier, got, want)
			}
			if got := par.tail(tier); got != want {
				t.Fatalf("tick %d %v: concurrent tail %v, serial %v", k, tier, got, want)
			}
		}
		for i, s := range parTasks {
			if s.member == paused(i, k) {
				t.Fatalf("tick %d task %d: member %v, paused %v", k, i, s.member, paused(i, k))
			}
			if got, want := s.latencySum, serialTasks[i].latencySum; got != want {
				t.Fatalf("tick %d task %d: latency total %v, serial %v", k, i, got, want)
			}
		}
		if len(par.members) != active || len(serial.members) != active {
			t.Fatalf("tick %d: %d and %d members, %d tasks delivered", k, len(par.members), len(serial.members), active)
		}
		now = now.Add(time.Second)
	}
}

// BenchmarkSearchTreeTick is one tick of the search tree at the bench
// fleet's shape: 1,000 leaves, 200 intermediates and 2 roots deliver,
// then EndTick takes each tier's p95.
func BenchmarkSearchTreeTick(b *testing.B) {
	tree, tasks := searchFleet(1000, 200, 2)
	r := res(1.3)
	now := t0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range tasks {
			s.Deliver(now, 1.4, time.Second, r)
		}
		tree.EndTick()
		now = now.Add(time.Second)
	}
}
