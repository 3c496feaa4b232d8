package core

import (
	"math/bits"
	"unsafe"

	"repro/internal/model"
)

// KeyMemo resolves the spec keys of one sample stream (an aggregator
// connection's) to the builder slots that hold them, so a key the
// stream has sent before costs no string hash. The stream's decoder
// interns its names, so a key arrives as the same two strings every
// time; the memo finds them by identity, their address and length,
// placed in an open-addressed table by one multiplication.
//
// An entry holds a slot number and the slot's generation, never an
// aggregate. Recompute leaves every live key in its slot, so the memo
// stays valid across it. A slot freed (its key's history died, or
// ExportKeys handed the key off) moves to a new generation, and an
// entry made before that is resolved again on its next use.
//
// The zero KeyMemo is ready to use. It belongs to the builder it is
// first used with and starts over if used with another. It is not safe
// for concurrent use: one stream's batches are folded one at a time.
type KeyMemo struct {
	owner   *SpecBuilder
	entries []memoEntry // len is 0 or a power of two; job "" = empty
	shift   uint        // 64 − log2(len(entries))
	used    int
}

type memoEntry struct {
	job      model.JobName
	platform model.Platform
	slot     int32
	gen      uint32
}

// A memo starts at memoMinLen entries and doubles at half full. Names
// come from outside, and a decoder that flushes its table interns them
// again at new addresses, so a memo that holds memoMaxUsed entries
// starts over rather than grow.
const (
	memoMinLen  = 16
	memoMaxUsed = 1 << 12
)

// slot returns the slot of the key (job, platform) in b, giving the key
// one if it has none. A nil memo resolves through b's index. Callers
// hold b.mu.
func (m *KeyMemo) slot(b *SpecBuilder, job model.JobName, platform model.Platform) int32 {
	if m == nil {
		return b.slotFor(model.SpecKey{Job: job, Platform: platform})
	}
	if m.owner == b && len(m.entries) > 0 {
		if e := m.find(job, platform); e.job != "" && b.slots[e.slot].gen == e.gen {
			return e.slot
		}
	}
	return m.fill(b, job, platform)
}

// fill is slot's miss path: the builder's index resolves the key, and
// the memo records the answer.
func (m *KeyMemo) fill(b *SpecBuilder, job model.JobName, platform model.Platform) int32 {
	if m.owner != b || m.used >= memoMaxUsed {
		*m = KeyMemo{owner: b}
	}
	if 2*(m.used+1) > len(m.entries) {
		m.grow()
	}
	e := m.find(job, platform)
	if e.job == "" {
		e.job, e.platform = job, platform
		m.used++
	}
	e.slot = b.slotFor(model.SpecKey{Job: job, Platform: platform})
	e.gen = b.slots[e.slot].gen
	return e.slot
}

// find returns the entry for (job, platform), or the empty entry where
// it would go. The table is never full.
func (m *KeyMemo) find(job model.JobName, platform model.Platform) *memoEntry {
	jp, pp := unsafe.StringData(string(job)), unsafe.StringData(string(platform))
	h := (uint64(uintptr(unsafe.Pointer(jp)))*0x9e3779b97f4a7c15 ^ uint64(uintptr(unsafe.Pointer(pp)))) * 0x9e3779b97f4a7c15
	mask := uint64(len(m.entries) - 1)
	for i := h >> m.shift; ; i = (i + 1) & mask {
		e := &m.entries[i]
		if e.job == "" || unsafe.StringData(string(e.job)) == jp && len(e.job) == len(job) &&
			unsafe.StringData(string(e.platform)) == pp && len(e.platform) == len(platform) {
			return e
		}
	}
}

// grow doubles the table (to memoMinLen from empty) and re-places the
// entries.
func (m *KeyMemo) grow() {
	old := m.entries
	n := max(memoMinLen, 2*len(old))
	m.entries = make([]memoEntry, n)
	m.shift = uint(64 - bits.Len(uint(n-1)))
	for _, e := range old {
		if e.job != "" {
			*m.find(e.job, e.platform) = e
		}
	}
}
