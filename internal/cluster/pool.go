package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the persistent worker pool behind Step's parallel phase.
//
// A run splits [0, n) into a few chunks per goroutine (chunkSize); the
// caller and the woken workers claim chunks off one atomic word, so a
// faster or earlier claimer takes more of them. The run ends when its
// last chunk completes, and whoever completes it signals the end: the
// caller never waits for a worker to wake or check in, so a worker that
// wakes late finds nothing to claim and is off the critical path.
// Goroutines persist across Steps because spawning them per Step cost
// more than the machine ticks they ran (workers=4 once ran at half the
// speed of workers=1), and chunks are coarse because claiming machines
// one at a time kept the shared counter's cache line in flight.
//
// The claim word and the done word carry the run's generation in
// their high 32 bits, so a worker still holding an earlier run's job
// can neither claim a chunk of a later run nor count one towards it.
// A run costs one non-blocking channel send per worker woken and one
// compare-and-swap per chunk claimed and per chunk completed; it
// allocates nothing.
type pool struct {
	tasks    chan job
	board    *board
	gen      uint32 // the last run's generation; touched only by run
	stopped  atomic.Bool
	stopOnce sync.Once
}

// job is one run's parameters, copied to every worker it wakes.
type job struct {
	gen    uint32
	n      int // indices [0, n)
	size   int // indices per chunk; the last chunk may be shorter
	chunks int
	fn     func(start, end int)
}

// board is the claim state the caller and the workers share.
type board struct {
	next atomic.Uint64 // gen<<32 | index of the next unclaimed chunk
	done atomic.Uint64 // gen<<32 | chunks completed
	end  chan struct{} // the worker that completes a run's last chunk sends here
}

// newPool starts workers goroutines that claim chunks of each run.
func newPool(workers int) *pool {
	// One slot per worker: run wakes at most that many, and a wake sent
	// while a worker is busy waits in the buffer instead of blocking run.
	tasks := make(chan job, workers)
	b := &board{end: make(chan struct{}, 1)}
	p := &pool{tasks: tasks, board: b}
	for i := 0; i < workers; i++ {
		// Capture only the channel and the board: a goroutine holding
		// *pool itself would keep the finalizer below from ever firing.
		go func() {
			for j := range tasks {
				if b.work(&j) {
					b.end <- struct{}{}
				}
			}
		}()
	}
	// Clusters are often built in loops (benchmarks, experiments) and
	// abandoned without an explicit Close; reclaim the workers when the
	// pool becomes unreachable.
	runtime.SetFinalizer(p, (*pool).stop)
	return p
}

// stop terminates the workers. Idempotent.
func (p *pool) stop() {
	p.stopOnce.Do(func() {
		p.stopped.Store(true)
		close(p.tasks)
	})
}

// chunkSize is the claim granularity for n indices over parts
// goroutines: about eight chunks per goroutine, so an uneven split
// costs at most an eighth of a share while claims stay few.
func chunkSize(n, parts int) int { return max(1, n/(8*parts)) }

// run calls fn(start, end) over disjoint ranges covering [0, n), on
// the calling goroutine and up to parts−1 of the pool's workers, and
// returns when every range has been processed. A stopped pool degrades
// to running everything inline.
func (p *pool) run(n, parts int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if parts <= 1 || p.stopped.Load() {
		fn(0, n)
		return
	}
	size := chunkSize(n, parts)
	p.gen++
	j := job{gen: p.gen, n: n, size: size, chunks: (n + size - 1) / size, fn: fn}
	b := p.board
	b.done.Store(uint64(j.gen) << 32)
	b.next.Store(uint64(j.gen) << 32)
wake:
	for w := min(parts-1, cap(p.tasks), j.chunks-1); w > 0; w-- {
		select {
		case p.tasks <- j:
		default: // every slot holds an unclaimed wake; the caller carries on
			break wake
		}
	}
	if !b.work(&j) {
		<-b.end
	}
}

// work claims and processes chunks of j until none is left, and
// reports whether it completed j's last chunk.
func (b *board) work(j *job) bool {
	for {
		w := b.next.Load()
		c := int(uint32(w))
		if uint32(w>>32) != j.gen || c >= j.chunks {
			return false
		}
		if !b.next.CompareAndSwap(w, w+1) {
			continue
		}
		start := c * j.size
		j.fn(start, min(start+j.size, j.n))
		if b.complete(j.gen, j.chunks) {
			return true
		}
	}
}

// complete counts one finished chunk of run gen and reports whether it
// was the run's last. A chunk of an earlier run counts nowhere.
func (b *board) complete(gen uint32, chunks int) bool {
	for {
		w := b.done.Load()
		if uint32(w>>32) != gen {
			return false
		}
		if b.done.CompareAndSwap(w, w+1) {
			return int(uint32(w))+1 == chunks
		}
	}
}
