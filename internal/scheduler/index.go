package scheduler

// index orders every machine by placement preference: ascending score
// (committed CPU / capacity), ties on name. Placement walks it from
// the front and takes the first machine that fits, which is exactly
// the machine a full scan picks — the feasible machine with the least
// score, the earliest name among equal scores — without visiting the
// fleet: on a spread-out fleet the front machine almost always fits.
//
// It is a treap threaded through the machine states themselves (no
// node allocations): a binary search tree on (key, name) that is also a
// max-heap on a fixed per-machine priority, so insert and remove are
// O(log n) expected. Priorities come from a counter, not a random
// source, so the tree's shape — and nothing else, since the order is
// total — is a function of registration order.
type index struct {
	root  *machineState
	stack []*machineState // walk scratch, reused across placements
}

// before is the index order: (key, name) ascending.
func before(a, b *machineState) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.name < b.name
}

// insert keys m on its current score and links it in. m must be new
// or removed: not in the index, with no children.
func (x *index) insert(m *machineState) {
	m.key = m.committed / m.capacity
	x.root = treapInsert(x.root, m)
}

// remove unlinks m, found by the key it was inserted under, and clears
// its children.
func (x *index) remove(m *machineState) {
	x.root = treapRemove(x.root, m)
	m.left, m.right = nil, nil
}

// first returns the first machine in index order that fits accepts, or
// nil, and how many machines it examined.
func (x *index) first(fits func(*machineState) bool) (*machineState, int) {
	stack := x.stack[:0]
	probes := 0
	var found *machineState
	for t := x.root; t != nil || len(stack) > 0; t = t.right {
		for ; t != nil; t = t.left {
			stack = append(stack, t)
		}
		t, stack = stack[len(stack)-1], stack[:len(stack)-1]
		probes++
		if fits(t) {
			found = t
			break
		}
	}
	x.stack = stack[:0]
	return found, probes
}

func treapInsert(t, m *machineState) *machineState {
	if t == nil {
		return m
	}
	if m.prio > t.prio {
		m.left, m.right = treapSplit(t, m)
		return m
	}
	if before(m, t) {
		t.left = treapInsert(t.left, m)
	} else {
		t.right = treapInsert(t.right, m)
	}
	return t
}

// treapSplit divides t into the machines ordered before m and those
// after it (m itself is not in t).
func treapSplit(t, m *machineState) (lo, hi *machineState) {
	if t == nil {
		return nil, nil
	}
	if before(t, m) {
		t.right, hi = treapSplit(t.right, m)
		return t, hi
	}
	lo, t.left = treapSplit(t.left, m)
	return lo, t
}

func treapRemove(t, m *machineState) *machineState {
	if t == nil {
		return nil
	}
	if t == m {
		return treapMerge(t.left, t.right)
	}
	if before(m, t) {
		t.left = treapRemove(t.left, m)
	} else {
		t.right = treapRemove(t.right, m)
	}
	return t
}

// treapMerge joins two treaps whose every key in lo orders before
// every key in hi.
func treapMerge(lo, hi *machineState) *machineState {
	switch {
	case lo == nil:
		return hi
	case hi == nil:
		return lo
	case lo.prio > hi.prio:
		lo.right = treapMerge(lo.right, hi)
		return lo
	default:
		hi.left = treapMerge(lo, hi.left)
		return hi
	}
}

// treapPriority is the SplitMix64 finalizer of the machine's
// registration number: well-spread priorities from a plain counter.
func treapPriority(n uint64) uint64 {
	n += 0x9E3779B97F4A7C15
	n = (n ^ (n >> 30)) * 0xBF58476D1CE4E5B9
	n = (n ^ (n >> 27)) * 0x94D049BB133111EB
	return n ^ (n >> 31)
}
