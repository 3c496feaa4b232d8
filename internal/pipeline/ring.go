package pipeline

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/model"
)

// DefaultVnodes is the virtual-node count per ring member. 64 points
// per member keeps the worst-case key imbalance across a handful of
// shards within a few percent while the whole ring stays small enough
// to rebuild on every membership change (member joins and leaves are
// rare control-plane events, not data-path ones).
const DefaultVnodes = 64

// Ring is a consistent-hash ring mapping job×platform spec keys to
// shard members. Members are plain strings — shard IDs like "shard-0"
// in the cluster simulator, aggregator addresses in the real agent —
// and the mapping is a pure function of (member set, vnode count, key),
// so every participant that knows the membership computes identical
// ownership without coordination.
//
// The ring is immutable after construction: resharding builds a new
// Ring and diffs ownership (see MovedKeys). That keeps concurrent
// readers lock-free and makes "which keys move on a 1→4 split" a pure
// computation the handoff machinery can trust.
type Ring struct {
	members []string // sorted, unique
	vnodes  int
	points  []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over the given members with vnodes virtual
// nodes each (vnodes <= 0 selects DefaultVnodes). Duplicate members
// are collapsed; member order does not matter. An empty member set
// yields a ring whose Owner returns "" — callers treat that as
// "unsharded".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnode labels are astronomically rare
		// but must not make ownership depend on sort stability.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// ringHash is the ring's position hash (FNV-1a 64): deterministic,
// dependency-free, and uniform enough for vnode placement.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Members returns the ring's member set, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key ("" on an empty ring): the
// first virtual node clockwise from the key's hash position.
func (r *Ring) Owner(key model.SpecKey) string {
	i := r.OwnerIndex(key)
	if i < 0 {
		return ""
	}
	return r.members[i]
}

// OwnerIndex returns the owning member's index into Members() (-1 on
// an empty ring). Members() is sorted as strings, so the index says
// nothing about a member's name ("shard-10" sorts before "shard-2"):
// it is for tables built in Members() order, as Router's sinks are.
func (r *Ring) OwnerIndex(key model.SpecKey) int {
	if len(r.points) == 0 {
		return -1
	}
	h := ringHash(key.String())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].member
}

// MovedKeys returns the subset of keys whose owner differs between the
// two rings, in input order — exactly the builder state a live reshard
// must hand off. Keys owned by neither (empty rings) never move.
func MovedKeys(oldRing, newRing *Ring, keys []model.SpecKey) []model.SpecKey {
	var out []model.SpecKey
	for _, k := range keys {
		if oldRing.Owner(k) != newRing.Owner(k) {
			out = append(out, k)
		}
	}
	return out
}
