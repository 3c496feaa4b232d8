package pipeline

import (
	"slices"

	"repro/internal/model"
	"repro/internal/obs/trace"
)

// interestIndex is Bus.Push's memo of the WantSpec matrix: for every key
// pushed lately, the watchers that want it. Push keeps it true instead
// of asking every watcher about every spec:
//
//   - a watcher Watch()ed since the last push, or whose InterestVersion
//     has moved, is asked about every indexed key (K probes);
//   - a key never pushed before is asked of every watcher (W probes);
//   - an Unwatch()ed watcher leaves without being asked anything.
//
// So with W watchers and K indexed keys a push costs W version reads,
// (new or changed watchers) × K + (new keys) × W probes, and its
// deliveries; the steady state is W reads and the deliveries. Only Push
// touches the index, under Bus.pushMu.
type interestIndex struct {
	// gen is the Bus.watchGen that watchers was taken at.
	gen uint64
	// watchers is the bus's watcher list, in registration order, as of
	// gen: the bus's own array, which it no longer rewrites (see
	// Bus.watchers). A watcher is known to the rest of the index by its
	// position here — its slot, an int32: the per-key lists are most of
	// the index's memory. versions[slot] is the InterestVersion the
	// slot's probes were made at.
	watchers []registration
	versions []uint64
	keys     map[model.SpecKey]*keyInterest
	// flushers are the watchers that buffer deliveries.
	flushers []specFlusher
	// pushes counts Push calls; forgetIdle reads it.
	pushes uint64
}

// keyInterest is who wants one key.
type keyInterest struct {
	// name is the key's Name on spec_push spans, made on the first: every
	// traced push of the key carries it.
	name trace.Name
	// slots lists the interested watchers, ascending: delivery order is
	// registration order.
	slots []int32
	// pushed is interestIndex.pushes at the key's last push.
	pushed uint64
}

// specFlusher is a watcher whose DeliverSpec buffers: the bus calls
// flushSpecs once at the end of every push.
type specFlusher interface {
	flushSpecs()
}

// reconcile replaces watchers with regs, the bus's current list, which
// the caller keeps locked. Both are in registration order and regs is
// what watchers was, less the unwatched, plus newcomers at the end — so
// one walk over the two pairs them up by seq. It returns the slot of the
// first newcomer and, when any watcher left, where each old slot went
// (-1: gone) for renumber.
func (ix *interestIndex) reconcile(regs []registration) (fresh int, moved []int32) {
	old := ix.watchers
	fresh = len(old)
	// The last old watcher still in its old slot means nothing before it
	// left either.
	if n := len(old); n > len(regs) || (n > 0 && regs[n-1].seq != old[n-1].seq) {
		moved = make([]int32, n)
		fresh = 0
		for i, was := range old {
			if fresh < len(regs) && regs[fresh].seq == was.seq {
				moved[i] = int32(fresh)
				ix.versions[fresh] = ix.versions[i]
				fresh++
			} else {
				moved[i] = -1
			}
		}
	}
	ix.watchers = regs
	// A newcomer's version is read before it is first compared.
	ix.versions = slices.Grow(ix.versions[:fresh], len(regs)-fresh)[:len(regs)]
	clear(ix.flushers)
	ix.flushers = ix.flushers[:0]
	for _, r := range regs {
		if f, ok := r.w.(specFlusher); ok {
			ix.flushers = append(ix.flushers, f)
		}
	}
	return fresh, moved
}

// renumber rewrites every key's list through moved (see reconcile),
// dropping the watchers that left. A nil moved means none did.
func (ix *interestIndex) renumber(moved []int32) {
	if moved == nil {
		return
	}
	for _, in := range ix.keys {
		kept := in.slots[:0]
		for _, s := range in.slots {
			if to := moved[s]; to >= 0 {
				kept = append(kept, to)
			}
		}
		in.slots = kept
	}
}

// reprobe reads every watcher's InterestVersion and asks the ones whose
// version moved, and every newcomer (slots from fresh on), about every
// indexed key.
func (ix *interestIndex) reprobe(fresh int) {
	for slot, r := range ix.watchers {
		// Read before asking: if the watcher's interest changes under the
		// probes, this is the version from before the change, and the
		// next push asks again.
		v := r.w.InterestVersion()
		if slot < fresh && v == ix.versions[slot] {
			continue
		}
		ix.versions[slot] = v
		for key, in := range ix.keys {
			in.set(int32(slot), r.w.WantSpec(key))
		}
	}
}

// set records whether slot wants the key.
func (in *keyInterest) set(slot int32, want bool) {
	at, has := slices.BinarySearch(in.slots, slot)
	switch {
	case want && !has:
		in.slots = slices.Insert(in.slots, at, slot)
	case has && !want:
		in.slots = slices.Delete(in.slots, at, at+1)
	}
}

// interest returns who wants key, asking every watcher if the key is
// not indexed yet.
func (ix *interestIndex) interest(key model.SpecKey) *keyInterest {
	in := ix.keys[key]
	if in != nil {
		return in
	}
	in = &keyInterest{}
	for slot, r := range ix.watchers {
		if r.w.WantSpec(key) {
			in.slots = append(in.slots, int32(slot))
		}
	}
	if ix.keys == nil {
		ix.keys = make(map[model.SpecKey]*keyInterest)
	}
	ix.keys[key] = in
	return in
}

// idlePushes is how many pushes in a row may leave a key out before the
// index forgets it: the builder ages idle keys out, and what it no
// longer pushes should cost a changed watcher no probe. A forgotten key
// that comes back is a new key.
const idlePushes = 64

// forgetIdle drops, every idlePushes pushes, the keys none of them
// carried.
func (ix *interestIndex) forgetIdle() {
	if ix.pushes%idlePushes != 0 {
		return
	}
	for key, in := range ix.keys {
		if ix.pushes-in.pushed >= idlePushes {
			delete(ix.keys, key)
		}
	}
}
