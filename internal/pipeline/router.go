package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/model"
)

// routerMemoMax bounds the key → member memo. Job names arrive from
// outside (tasks come and go over a daemon's lifetime), so the memo is
// flushed rather than allowed to grow without limit.
const routerMemoMax = 4096

// Router is a SampleSink that partitions every published batch across
// per-member sinks by consistent-hash ownership of each sample's
// job×platform key. It is the one fan-out stage of the sample path,
// inside every Egress (one per simulated machine, one per agent
// daemon), over a ring that may have a single member: each sample
// reaches exactly the member that owns its key, relative order within a
// member is preserved, and a dead member's errors never block the
// slices bound for healthy ones.
//
// A batch owned entirely by one member — always the case on a ring of
// one, and the usual case for a machine running a few jobs — is
// forwarded as is. A mixed batch is copied into per-member buckets that
// the Router reuses across calls, so the usual SampleSink contract
// applies downstream: sinks that buffer (Spooler, Queue) copy.
//
// Publish calls are serialized, which is what keeps per-member order
// equal to publish order under concurrent publishers.
type Router struct {
	ring  *Ring
	sinks []SampleSink // sinks[i] serves ring.Members()[i]

	mu sync.Mutex
	// memo caches ring lookups (a hash and a binary search each). The
	// ring is immutable, so an entry never goes stale.
	memo    map[model.SpecKey]int
	buckets [][]model.Sample
}

// NewRouter builds a router over ring with one sink per ring member.
// Every member must have a sink and every sink must belong to a member.
func NewRouter(ring *Ring, sinks map[string]SampleSink) (*Router, error) {
	if ring == nil || ring.Size() == 0 {
		return nil, errors.New("pipeline: router needs a non-empty ring")
	}
	members := ring.Members()
	if len(sinks) != len(members) {
		return nil, fmt.Errorf("pipeline: router has %d sinks for %d ring members", len(sinks), len(members))
	}
	r := &Router{
		ring:    ring,
		sinks:   make([]SampleSink, len(members)),
		memo:    make(map[model.SpecKey]int),
		buckets: make([][]model.Sample, len(members)),
	}
	for i, m := range members {
		if sinks[m] == nil {
			return nil, fmt.Errorf("pipeline: router has no sink for ring member %q", m)
		}
		r.sinks[i] = sinks[m]
	}
	return r, nil
}

// memberOf returns the index of the ring member owning key. Caller
// holds r.mu.
func (r *Router) memberOf(key model.SpecKey) int {
	if m, ok := r.memo[key]; ok {
		return m
	}
	if len(r.memo) >= routerMemoMax {
		clear(r.memo)
	}
	m := r.ring.OwnerIndex(key)
	r.memo[key] = m
	return m
}

// forward hands one member its slice, naming the member in any error.
func (r *Router) forward(member int, samples []model.Sample) error {
	if err := r.sinks[member].Publish(samples); err != nil {
		return fmt.Errorf("shard %s: %w", r.ring.Members()[member], err)
	}
	return nil
}

// Publish implements SampleSink: samples are forwarded to the members
// owning their keys, in ring-member order. Errors from individual
// members are joined, not short-circuited — a blackout on one shard
// must not stop delivery to the others.
func (r *Router) Publish(samples []model.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Scan for the first sample owned by someone other than the first
	// sample's member. Samples of one task set arrive grouped by job, so
	// the memo is consulted once per run of equal keys, not per sample.
	key := model.SpecKey{Job: samples[0].Job, Platform: samples[0].Platform}
	first := r.memberOf(key)
	owner, i := first, 1
	for ; i < len(samples); i++ {
		if k := (model.SpecKey{Job: samples[i].Job, Platform: samples[i].Platform}); k != key {
			key = k
			if owner = r.memberOf(k); owner != first {
				break
			}
		}
	}
	if i == len(samples) {
		return r.forward(first, samples)
	}

	for m := range r.buckets {
		r.buckets[m] = r.buckets[m][:0]
	}
	r.buckets[first] = append(r.buckets[first], samples[:i]...)
	for ; i < len(samples); i++ {
		if k := (model.SpecKey{Job: samples[i].Job, Platform: samples[i].Platform}); k != key {
			key = k
			owner = r.memberOf(k)
		}
		r.buckets[owner] = append(r.buckets[owner], samples[i])
	}
	var errs []error
	for m, b := range r.buckets {
		if len(b) == 0 {
			continue
		}
		if err := r.forward(m, b); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
