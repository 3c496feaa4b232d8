// Package cgroup simulates the one control-group mechanism CPI² acts
// through: CFS bandwidth control (cpu.cfs_quota_us / cpu.cfs_period_us —
// the "CPU hard-capping" of Turner et al. that §5 uses to throttle
// antagonists) on a task's own group.
//
// A Group holds one task's limit and, for a leased limit, its lease.
// AllocateInto is the allocator the machine simulator runs each tick:
// capacity is divided equally among the demanding groups, bounded per
// group by demand and by its bandwidth limit, with unused capacity
// redistributed (water-filling) exactly as CFS would over a scheduling
// period.
package cgroup

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultPeriod is the default CFS bandwidth-control period. The paper
// describes caps as "25 ms in each 250 ms window" (§5), i.e. a 250 ms
// period.
const DefaultPeriod = 250 * time.Millisecond

// Limit is a CFS bandwidth limit: Quota CPU-time per Period of wall
// time. The zero Limit means "unlimited".
type Limit struct {
	Quota  time.Duration
	Period time.Duration
}

// Unlimited is the no-cap limit.
var Unlimited = Limit{}

// LimitFromRate builds a Limit granting rate CPU-sec/sec with the
// default period: rate 0.1 → 25ms/250ms, the paper's standard cap.
func LimitFromRate(rate float64) Limit {
	if rate <= 0 {
		return Limit{Quota: 0, Period: DefaultPeriod}
	}
	if math.IsInf(rate, 1) {
		return Unlimited
	}
	return Limit{
		Quota:  time.Duration(rate * float64(DefaultPeriod)),
		Period: DefaultPeriod,
	}
}

// IsLimited reports whether the limit constrains CPU at all.
func (l Limit) IsLimited() bool { return l.Period > 0 }

// Rate returns the limit as CPU-sec/sec (+Inf when unlimited).
func (l Limit) Rate() float64 {
	if !l.IsLimited() {
		return math.Inf(1)
	}
	return float64(l.Quota) / float64(l.Period)
}

// String renders the limit in cfs_quota/cfs_period form.
func (l Limit) String() string {
	if !l.IsLimited() {
		return "unlimited"
	}
	return fmt.Sprintf("%v/%v (%.3g CPU-sec/sec)", l.Quota, l.Period, l.Rate())
}

// Group is one task's control group. The zero Group is unlimited.
type Group struct {
	limit Limit
	// lease, when non-zero, is the instant at which the limit
	// self-releases unless renewed — the crash-safety contract of §5
	// enforcement: a cap whose owner vanished must limit the damage,
	// never throttle forever.
	lease time.Time
}

// SetLimit applies a CFS bandwidth limit — this is the hard-capping
// operation CPI² performs on antagonists. The limit has no lease: it
// stays until explicitly cleared (an operator-style cap).
func (g *Group) SetLimit(l Limit) {
	g.limit = l
	g.lease = time.Time{}
}

// SetLimitLease applies a bandwidth limit that self-releases at
// expires unless renewed. CPI²'s cap policy uses this so a cap survives
// only as long as its owner keeps renewing it: if the owning agent
// crashes, the next lease sweep clears the cap instead of throttling
// the task indefinitely.
func (g *Group) SetLimitLease(l Limit, expires time.Time) {
	g.limit = l
	g.lease = expires
}

// RenewLease extends a leased limit to expires. It reports whether a
// leased limit was present to renew; an unleased (operator) limit or
// an uncapped group is left untouched.
func (g *Group) RenewLease(expires time.Time) bool {
	if g.lease.IsZero() || !g.limit.IsLimited() {
		return false
	}
	if expires.After(g.lease) {
		g.lease = expires
	}
	return true
}

// LeaseExpiry returns the limit's lease expiry and whether the limit
// is leased at all.
func (g *Group) LeaseExpiry() (time.Time, bool) {
	return g.lease, !g.lease.IsZero() && g.limit.IsLimited()
}

// SweepLease clears the limit if its lease has expired at now and
// reports whether it did. Run it once per tick: it is the
// mechanism-level backstop that makes caps crash-safe — enforcement
// state lost with a dead agent converges to "uncapped" within one
// lease TTL. Unleased limits are never swept.
func (g *Group) SweepLease(now time.Time) bool {
	if exp, ok := g.LeaseExpiry(); ok && !now.Before(exp) {
		g.ClearLimit()
		return true
	}
	return false
}

// ClearLimit removes any bandwidth limit (and its lease).
func (g *Group) ClearLimit() {
	g.limit = Unlimited
	g.lease = time.Time{}
}

// Limit returns the group's limit.
func (g *Group) Limit() Limit { return g.limit }

// Demand is one group's CPU request for a tick.
type Demand struct {
	Group *Group
	// Want is the CPU the group would consume if unconstrained,
	// in CPU-sec/sec (e.g. 3.0 = three saturated threads).
	Want float64
}

// allocEntry is one group's water-filling state: its input position
// and ceiling (min of demand and cap).
type allocEntry struct {
	idx  int
	ceil float64
}

// AllocScratch holds the reusable working buffers of AllocateInto, so
// a machine ticking once per simulated second allocates nothing for
// CPU allocation. The zero value is ready to use.
type AllocScratch struct {
	entries []allocEntry
}

// entrySorter sorts an AllocScratch's entries by ceiling without
// allocating: the sort.Interface value is a pointer into the scratch,
// so the interface conversion stays off the heap.
type entrySorter AllocScratch

func (s *entrySorter) Len() int           { return len(s.entries) }
func (s *entrySorter) Swap(a, b int)      { s.entries[a], s.entries[b] = s.entries[b], s.entries[a] }
func (s *entrySorter) Less(a, b int) bool { return s.entries[a].ceil < s.entries[b].ceil }

// maxInsertion is the length up to which sort.Sort's pdqsort runs a
// plain insertion sort: sortByCeil's typed copy of it, below that
// length, yields sort.Sort's permutation with ties in the same order.
const maxInsertion = 12

// sortByCeil sorts entries by ceiling into exactly sort.Sort's order,
// without the interface calls on the short lists a machine has.
func sortByCeil(s *AllocScratch) {
	e := s.entries
	if len(e) > maxInsertion {
		sort.Sort((*entrySorter)(s))
		return
	}
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && e[j].ceil < e[j-1].ceil; j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// AllocateInto runs one tick of duration dt: it divides capacity (in
// CPUs) equally among the demanding groups, bounding each group by its
// demand and its bandwidth limit, water-filling until capacity or
// demand is exhausted. grants must have len(demands) entries and
// receives the granted rate (CPU-sec/sec) per demand in input order;
// scratch carries the working set across calls, so steady-state ticks
// perform zero heap allocations. A non-positive capacity or dt grants
// nothing.
//
// This mirrors what CFS achieves over a period: work-conserving fair
// sharing, except that bandwidth-capped groups cannot exceed quota even
// when the machine is idle — which is exactly why hard-capping protects
// victims regardless of load.
func AllocateInto(capacity float64, dt time.Duration, demands []Demand, grants []float64, scratch *AllocScratch) {
	if len(grants) != len(demands) {
		panic("cgroup: AllocateInto grants/demands length mismatch")
	}
	if capacity <= 0 || dt <= 0 {
		clear(grants)
		return
	}

	// ceil = min(want, cap) — the most group i may get.
	sum := 0.0
	for i, d := range demands {
		ceil := d.Want
		if ceil < 0 {
			ceil = 0
		}
		if r := d.Group.limit.Rate(); r < ceil {
			ceil = r
		}
		grants[i] = ceil
		sum += ceil
	}
	// Ceilings that fit with a margin are every group's water-filled
	// grant: taken in ascending order, each is at most the equal share
	// of what is left, and the margin dwarfs the rounding of the
	// running remainder, so the loop below would grant each its
	// ceiling bit for bit.
	if sum <= capacity*(1-1e-9) {
		return
	}
	entries := scratch.entries[:0]
	for i, ceil := range grants {
		entries = append(entries, allocEntry{idx: i, ceil: ceil})
	}
	scratch.entries = entries

	// Water-filling: groups whose ceiling is below an equal share of
	// what is left get exactly their ceiling; the surplus is re-divided
	// among the rest. Sorting by ceiling finalizes groups in one pass.
	sortByCeil(scratch)
	remaining := capacity
	for k, e := range entries {
		grant := math.Min(e.ceil, remaining/float64(len(entries)-k))
		grants[e.idx] = grant
		remaining -= grant
	}
}
