package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPoolRunCoversRange checks every index is processed
// exactly once for a spread of sizes and partition counts, including
// n < parts, parts above GOMAXPROCS and the pool's own worker count, n
// that the chunk size does not divide, and repeated runs on the same
// pool.
func TestConcurrentPoolRunCoversRange(t *testing.T) {
	p := newPool(3)
	defer p.stop()
	over := 2*runtime.GOMAXPROCS(0) + 3
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {10, 4}, {1000, 4}, {7, 1},
		// Chunk sizes 41, 62 and 3: each leaves a short last chunk.
		{1000, 3}, {1001, 2}, {97, 4},
		{1000, over}, {37, over}, {5, over},
	} {
		hits := make([]atomic.Int32, tc.n)
		for round := 0; round < 3; round++ {
			p.run(tc.n, tc.parts, func(start, end int) {
				for i := start; i < end; i++ {
					hits[i].Add(1)
				}
			})
		}
		for i := range hits {
			if got := hits[i].Load(); got != 3 {
				t.Fatalf("n=%d parts=%d: index %d processed %d times, want 3", tc.n, tc.parts, i, got)
			}
		}
	}
}

// TestConcurrentPoolLateWorkerOffCriticalPath blocks the pool's only
// worker inside a job sent straight to its channel. run must still
// return, the caller having processed every index once; the wake it
// sent the busy worker stays queued. The next run releases the worker
// from inside its first chunk and waits until the worker has taken that
// stale wake, so the worker finishes its old job and tries the stale
// one while the new run is in progress: neither may count or claim
// anything in it, and no index may be processed twice.
func TestConcurrentPoolLateWorkerOffCriticalPath(t *testing.T) {
	p := newPool(1)
	defer p.stop()
	entered, release := make(chan struct{}), make(chan struct{})
	// Generation 0 is the fresh board's, so the worker can claim this
	// job's one chunk; no run ever uses generation 0.
	p.tasks <- job{gen: 0, n: 1, size: 1, chunks: 1, fn: func(int, int) {
		close(entered)
		<-release
	}}
	<-entered

	const n = 200
	count := func(hits []atomic.Int32) func(start, end int) {
		return func(start, end int) {
			for i := start; i < end; i++ {
				hits[i].Add(1)
			}
		}
	}
	first := make([]atomic.Int32, n)
	p.run(n, 2, count(first))
	for i := range first {
		if got := first[i].Load(); got != 1 {
			t.Fatalf("blocked worker: index %d processed %d times, want 1", i, got)
		}
	}
	if len(p.tasks) != 1 {
		t.Fatalf("%d wakes queued for the busy worker, want 1", len(p.tasks))
	}

	second := make([]atomic.Int32, n)
	var once sync.Once
	p.run(n, 2, func(start, end int) {
		once.Do(func() {
			close(release)
			for len(p.tasks) > 0 { // until the worker holds the stale wake
				runtime.Gosched()
			}
		})
		for i := start; i < end; i++ {
			second[i].Add(1)
			runtime.Gosched() // room for a stale claim to land, were one possible
		}
	})
	third := make([]atomic.Int32, n)
	for round := 0; round < 3; round++ {
		p.run(n, 2, count(third))
	}
	for i := 0; i < n; i++ {
		if got := first[i].Load(); got != 1 {
			t.Fatalf("stale job processed index %d again (%d times in all)", i, got)
		}
		if got := second[i].Load(); got != 1 {
			t.Fatalf("run with a stale worker: index %d processed %d times, want 1", i, got)
		}
		if got := third[i].Load(); got != 3 {
			t.Fatalf("after release: index %d processed %d times in 3 runs, want 3", i, got)
		}
	}
}

// TestConcurrentPoolRunAllocFree checks a run on a warm pool allocates
// nothing: the job travels by value and completion is one channel, so
// there is no closure or WaitGroup per call.
func TestConcurrentPoolRunAllocFree(t *testing.T) {
	for _, parts := range []int{2, 4} {
		p := newPool(parts - 1)
		var sum atomic.Int64
		fn := func(start, end int) { sum.Add(int64(end - start)) }
		p.run(1000, parts, fn)
		if got := testing.AllocsPerRun(200, func() { p.run(1000, parts, fn) }); got != 0 {
			t.Errorf("parts=%d: run allocates %v times per call, want 0", parts, got)
		}
		p.stop()
	}
}

// TestConcurrentPoolStoppedRunsInline checks run still completes (on
// the calling goroutine) after stop — stepping a closed Cluster must
// not panic.
func TestConcurrentPoolStoppedRunsInline(t *testing.T) {
	p := newPool(2)
	p.stop()
	p.stop() // idempotent
	var count atomic.Int32
	p.run(8, 4, func(start, end int) { count.Add(int32(end - start)) })
	if got := count.Load(); got != 8 {
		t.Errorf("processed %d indices, want 8", got)
	}
}
