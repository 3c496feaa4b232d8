package pipeline

import (
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Queue is a buffering SampleSink used by the cluster's parallel tick
// phase. Each machine's agent publishes into its own Queue while all
// machines tick concurrently; the serial commit phase then drains each
// queue, in machine-index order, into that machine's Egress, which
// sends every sample on toward the shard bus that owns its key.
//
// This is what makes the pipeline order-stable under parallelism: the
// spec builder folds samples with streaming moments, so the byte-exact
// spec depends on sample arrival order, and draining per-machine FIFO
// queues in a fixed order reproduces the serial schedule exactly no
// matter how the parallel phase interleaved.
//
// Publish is safe for concurrent use (a machine's workloads could in
// principle publish from helper goroutines); batches are kept in FIFO
// order per queue.
//
// Batch buffers are pooled: Publish copies into a recycled buffer and
// DrainTo returns buffers to the pool after delivery, so a machine
// publishing one batch per sampling window reaches steady state with
// zero queue allocations. This leans on the SampleSink contract that
// sinks must not retain the batch slice after Publish returns.
type Queue struct {
	mu      sync.Mutex
	batches [][]model.Sample
	// free recycles batch buffers (most recently returned last) and
	// drained holds spare [][]model.Sample backing arrays for the
	// batches list itself.
	free    [][]model.Sample
	drained [][][]model.Sample
	// depth mirrors len(batches) so Len — asked of every machine's
	// queue on every tick, to decide whether it has anything to commit
	// — is one atomic load instead of a lock round trip.
	depth atomic.Int64
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Publish implements SampleSink: it copies the batch into a pooled
// buffer and appends it to the queue. It never fails; delivery outcome
// is decided at drain time.
func (q *Queue) Publish(samples []model.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	q.mu.Lock()
	cp := q.takeLocked(len(samples))
	copy(cp, samples)
	q.batches = append(q.batches, cp)
	q.depth.Store(int64(len(q.batches)))
	q.mu.Unlock()
	return nil
}

// takeLocked returns a length-n sample buffer, reusing the pool when a
// buffer with enough capacity is free.
func (q *Queue) takeLocked(n int) []model.Sample {
	for i := len(q.free) - 1; i >= 0; i-- {
		if cap(q.free[i]) >= n {
			buf := q.free[i][:n]
			q.free = append(q.free[:i], q.free[i+1:]...)
			return buf
		}
	}
	return make([]model.Sample, n)
}

// Len returns the number of queued batches.
func (q *Queue) Len() int { return int(q.depth.Load()) }

// DrainTo publishes every queued batch to dst in FIFO order and
// empties the queue. It returns the first error dst reported (the
// remaining batches are still delivered — sample loss is tolerable,
// partial delivery is not a reason to stall the tick). Sinks that
// implement BatchSink receive the whole backlog in one call.
//
// Delivered buffers go back to the pool, so dst must not retain the
// batch slices after the call (the SampleSink contract).
func (q *Queue) DrainTo(dst SampleSink) error {
	q.mu.Lock()
	batches := q.batches
	if n := len(q.drained); n > 0 {
		q.batches = q.drained[n-1][:0]
		q.drained = q.drained[:n-1]
	} else {
		q.batches = nil
	}
	q.depth.Store(0)
	q.mu.Unlock()
	if len(batches) == 0 {
		if batches != nil {
			q.recycle(batches)
		}
		return nil
	}
	var firstErr error
	if bs, ok := dst.(BatchSink); ok {
		firstErr = bs.PublishBatches(batches)
	} else {
		for _, b := range batches {
			if err := dst.Publish(b); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	q.recycle(batches)
	return firstErr
}

// recycle returns delivered batch buffers and their holder to the pool.
func (q *Queue) recycle(batches [][]model.Sample) {
	q.mu.Lock()
	for i, b := range batches {
		// Cap the pool so a transient backlog (an aggregator outage
		// buffering many windows) does not pin memory forever.
		if len(q.free) < 8 {
			q.free = append(q.free, b[:0])
		}
		batches[i] = nil
	}
	if len(q.drained) < 2 {
		q.drained = append(q.drained, batches[:0])
	}
	q.mu.Unlock()
}
