package pipeline

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
)

func ringKeys(n int) []model.SpecKey {
	keys := make([]model.SpecKey, 0, 2*n)
	for i := 0; i < n; i++ {
		job := model.JobName(fmt.Sprintf("job-%04d", i))
		keys = append(keys,
			model.SpecKey{Job: job, Platform: model.PlatformA},
			model.SpecKey{Job: job, Platform: model.PlatformB})
	}
	return keys
}

func TestRingOwnerDeterministic(t *testing.T) {
	members := []string{"shard-2", "shard-0", "shard-1", "shard-3"}
	a := NewRing(members, 0)
	b := NewRing([]string{"shard-0", "shard-1", "shard-3", "shard-2"}, 0) // different input order
	for _, k := range ringKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %v depends on member input order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
	if got := a.Size(); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
}

func TestRingSingleMemberOwnsEverything(t *testing.T) {
	r := NewRing([]string{"only"}, 0)
	for _, k := range ringKeys(200) {
		if r.Owner(k) != "only" {
			t.Fatalf("single-member ring sent %v to %q", k, r.Owner(k))
		}
		if r.OwnerIndex(k) != 0 {
			t.Fatalf("OwnerIndex = %d, want 0", r.OwnerIndex(k))
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	k := model.SpecKey{Job: "x", Platform: model.PlatformA}
	if r.Owner(k) != "" || r.OwnerIndex(k) != -1 {
		t.Errorf("empty ring: Owner=%q OwnerIndex=%d, want \"\"/-1", r.Owner(k), r.OwnerIndex(k))
	}
	if got := MovedKeys(r, r, []model.SpecKey{k}); got != nil {
		t.Errorf("MovedKeys on empty rings = %v, want nil", got)
	}
}

func TestRingDuplicateAndEmptyMembersCollapse(t *testing.T) {
	a := NewRing([]string{"s0", "s1", "s0", "", "s1"}, 0)
	b := NewRing([]string{"s0", "s1"}, 0)
	if a.Size() != 2 {
		t.Fatalf("Size = %d, want 2", a.Size())
	}
	for _, k := range ringKeys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("duplicates changed ownership of %v", k)
		}
	}
}

// TestRingBalance: with 64 vnodes per member, a 4-member ring should
// spread a realistic key population roughly evenly — no shard may own
// more than twice its fair share or less than a quarter of it. (The
// bound is loose on purpose: vnode placement is hash-random.)
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
	keys := ringKeys(2000)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := len(keys) / r.Size()
	for m, n := range counts {
		if n > 2*fair || n < fair/4 {
			t.Errorf("member %s owns %d keys, fair share %d — ring badly imbalanced", m, n, fair)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d members own keys, want 4", len(counts))
	}
}

// TestRingMinimalMovement is the consistent-hashing property: growing
// a ring from N to N+1 members must move only keys that land on the
// new member, and nothing may shuffle between surviving members.
func TestRingMinimalMovement(t *testing.T) {
	old := NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	grown := NewRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
	keys := ringKeys(2000)
	moved := 0
	for _, k := range keys {
		from, to := old.Owner(k), grown.Owner(k)
		if from == to {
			continue
		}
		moved++
		if to != "shard-3" {
			t.Fatalf("key %v moved %s→%s: keys may only move to the joining member", k, from, to)
		}
	}
	if moved == 0 {
		t.Error("no keys moved to the new member — ring ignores membership")
	}
	if moved > len(keys)/2 {
		t.Errorf("%d/%d keys moved on a 3→4 grow — far beyond the ~1/4 consistent-hashing bound", moved, len(keys))
	}
	if got := MovedKeys(old, grown, keys); len(got) != moved {
		t.Errorf("MovedKeys found %d keys, scan found %d", len(got), moved)
	}
}

// TestRingOwnerIndexMatchesFNVReference: OwnerIndex hashes a key in
// place, and must place it exactly where hash/fnv over key.String()
// does — ownership is shared by agents and aggregators of different
// builds, so it may not move by one key.
func TestRingOwnerIndexMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	keys := make([]model.SpecKey, 10000)
	for i := range keys {
		job := make([]byte, rng.Intn(24))
		for j := range job {
			job[j] = byte(rng.Intn(256))
		}
		platform := model.Platform(fmt.Sprintf("platform-%d", rng.Intn(5)))
		keys[i] = model.SpecKey{Job: model.JobName(job), Platform: platform}
	}
	for _, n := range []int{1, 3, 12} {
		r := NewRing(shardNames(n), 0)
		for _, k := range keys {
			h := fnv.New64a()
			h.Write([]byte(k.String()))
			want := h.Sum64()
			i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= want })
			if i == len(r.points) {
				i = 0
			}
			if got := r.OwnerIndex(k); got != r.points[i].member {
				t.Fatalf("ring of %d: OwnerIndex(%q) = %d, hash/fnv reference %d", n, k, got, r.points[i].member)
			}
		}
		k := keys[0]
		if allocs := testing.AllocsPerRun(100, func() { r.OwnerIndex(k) }); allocs != 0 {
			t.Errorf("ring of %d: OwnerIndex allocates %v times per call, want 0", n, allocs)
		}
	}
}

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}
