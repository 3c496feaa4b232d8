package cgroup

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// allocate runs one one-second AllocateInto tick and returns the grants.
func allocate(capacity float64, demands ...Demand) []float64 {
	grants := make([]float64, len(demands))
	var scratch AllocScratch
	AllocateInto(capacity, time.Second, demands, grants, &scratch)
	return grants
}

func TestLimitFromRate(t *testing.T) {
	l := LimitFromRate(0.1)
	if l.Quota != 25*time.Millisecond || l.Period != 250*time.Millisecond {
		t.Errorf("0.1 cap = %v, want 25ms/250ms", l)
	}
	if !almostEqual(l.Rate(), 0.1, 1e-12) {
		t.Errorf("Rate = %v", l.Rate())
	}
	if LimitFromRate(math.Inf(1)).IsLimited() {
		t.Error("Inf rate should be unlimited")
	}
	z := LimitFromRate(0)
	if !z.IsLimited() || z.Rate() != 0 {
		t.Errorf("zero rate limit = %v", z)
	}
	if Unlimited.IsLimited() || !math.IsInf(Unlimited.Rate(), 1) {
		t.Error("Unlimited wrong")
	}
	if s := l.String(); s == "" || s == "unlimited" {
		t.Errorf("String = %q", s)
	}
	if Unlimited.String() != "unlimited" {
		t.Error("Unlimited.String wrong")
	}
}

func TestAllocateUncontended(t *testing.T) {
	var a, b Group
	grants := allocate(8, Demand{&a, 2}, Demand{&b, 1.5})
	if !almostEqual(grants[0], 2, 1e-9) || !almostEqual(grants[1], 1.5, 1e-9) {
		t.Errorf("grants = %v, want demands met", grants)
	}
}

func TestAllocateContendedProportional(t *testing.T) {
	// Both want 4 CPUs but only 4 exist: every group weighs the same,
	// so each gets half.
	var a, b Group
	grants := allocate(4, Demand{&a, 4}, Demand{&b, 4})
	if grants[0] != 2 || grants[1] != 2 {
		t.Errorf("grants = %v, want [2 2]", grants)
	}
}

func TestAllocateWaterFilling(t *testing.T) {
	var small, big Group
	// Small only wants 0.5, so big should get the rest.
	grants := allocate(4, Demand{&small, 0.5}, Demand{&big, 10})
	if !almostEqual(grants[0], 0.5, 1e-9) || !almostEqual(grants[1], 3.5, 1e-9) {
		t.Errorf("grants = %v, want [0.5 3.5]", grants)
	}
}

func TestAllocateHardCapBitesEvenWhenIdle(t *testing.T) {
	// The defining property of bandwidth control: a capped group cannot
	// exceed quota even on an otherwise idle machine.
	var g Group
	g.SetLimit(LimitFromRate(0.1))
	grants := allocate(16, Demand{&g, 5})
	if !almostEqual(grants[0], 0.1, 1e-9) {
		t.Errorf("capped grant = %v, want 0.1", grants[0])
	}
}

func TestAllocateCapNotChargedWhenDemandLow(t *testing.T) {
	// A cap above demand does not bind: the group gets what it wants.
	var g Group
	g.SetLimit(LimitFromRate(0.5))
	if grants := allocate(16, Demand{&g, 0.2}); grants[0] != 0.2 {
		t.Errorf("grant = %v, want the 0.2 demanded", grants[0])
	}
}

func TestAllocateZeroCapacity(t *testing.T) {
	var g Group
	if grants := allocate(0, Demand{&g, 1}); grants[0] != 0 {
		t.Errorf("grant = %v", grants[0])
	}
}

func TestAllocateEmptyDemands(t *testing.T) {
	if got := allocate(4); len(got) != 0 {
		t.Errorf("grants = %v", got)
	}
}

func TestAllocateNegativeDemandClamped(t *testing.T) {
	var g Group
	if grants := allocate(4, Demand{&g, -3}); grants[0] != 0 {
		t.Errorf("negative demand grant = %v", grants[0])
	}
}

func TestAllocateConservationProperty(t *testing.T) {
	// Properties: Σgrants ≤ capacity (+ε); 0 ≤ grant ≤ min(want, cap);
	// work conservation — if total ceil ≥ capacity then Σgrants ≈ capacity.
	f := func(wantsRaw []uint16, capsRaw []uint16, capRaw uint16) bool {
		n := len(wantsRaw)
		if n == 0 || n > 64 {
			return true
		}
		groups := make([]Group, n)
		demands := make([]Demand, n)
		ceils := make([]float64, n)
		for i := range demands {
			want := float64(wantsRaw[i]) / 1000 // 0..65.5 CPUs
			ceil := want
			if i < len(capsRaw) && capsRaw[i]%3 == 0 { // cap some groups
				rate := float64(capsRaw[i]) / 2000
				groups[i].SetLimit(LimitFromRate(rate))
				if rate < ceil {
					ceil = rate
				}
			}
			demands[i] = Demand{Group: &groups[i], Want: want}
			ceils[i] = ceil
		}
		capacity := float64(capRaw) / 1000
		grants := allocate(capacity, demands...)
		var sum, sumCeil float64
		for i, g := range grants {
			if g < -1e-9 || g > ceils[i]+1e-9 {
				return false
			}
			sum += g
			sumCeil += ceils[i]
		}
		if sum > capacity+1e-6 {
			return false
		}
		wantTotal := math.Min(capacity, sumCeil)
		return almostEqual(sum, wantTotal, 1e-6*(1+wantTotal))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refEntry and refSorter are the weighted allocator's working state,
// kept verbatim for referenceAllocate.
type refEntry struct {
	idx    int
	shares float64
	ceil   float64
}

type refSorter []refEntry

func (s refSorter) Len() int      { return len(s) }
func (s refSorter) Swap(a, b int) { s[a], s[b] = s[b], s[a] }
func (s refSorter) Less(a, b int) bool {
	return s[a].ceil*s[b].shares < s[b].ceil*s[a].shares
}

// referenceAllocate is the cpu.shares-weighted water-filling allocator
// AllocateInto replaced, with every group at the default weight of
// 1024, as every group always was. It is the oracle that the
// equal-weight allocator grants bit for bit what the weighted one did.
func referenceAllocate(capacity float64, dt time.Duration, demands []Demand) []float64 {
	const defaultShares = 1024
	grants := make([]float64, len(demands))
	if capacity <= 0 || dt <= 0 || len(demands) == 0 {
		return grants
	}
	entries := make(refSorter, 0, len(demands))
	for i, d := range demands {
		ceil := d.Want
		if ceil < 0 {
			ceil = 0
		}
		rate := math.Inf(1) // the unlimited root, then the group itself
		if r := d.Group.Limit().Rate(); r < rate {
			rate = r
		}
		if rate < ceil {
			ceil = rate
		}
		entries = append(entries, refEntry{idx: i, shares: defaultShares, ceil: ceil})
	}
	sort.Sort(entries)
	remaining := capacity
	var remainingShares float64
	for _, e := range entries {
		remainingShares += e.shares
	}
	for _, e := range entries {
		var grant float64
		if remainingShares > 0 {
			fairShare := remaining * e.shares / remainingShares
			grant = math.Min(e.ceil, fairShare)
		}
		grants[e.idx] = grant
		remaining -= grant
		remainingShares -= e.shares
	}
	return grants
}

// TestAllocateMatchesWeightedReference pins bit-identity: on random
// wants (negative and tied ones included), caps (zero-rate ones
// included) and capacities (non-positive ones included), every grant of
// AllocateInto equals the weighted reference's with ==.
func TestAllocateMatchesWeightedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var scratch AllocScratch
	for c := 0; c < 20000; c++ {
		n := rng.Intn(40)
		groups := make([]Group, n)
		demands := make([]Demand, n)
		for i := range demands {
			var want float64
			switch rng.Intn(4) {
			case 0: // a few shared values, so ties are common
				want = float64(rng.Intn(4)) / 2
			case 1:
				want = -rng.Float64() * 3
			default:
				want = rng.Float64() * 12
			}
			switch rng.Intn(5) {
			case 0:
				groups[i].SetLimit(LimitFromRate(0))
			case 1:
				groups[i].SetLimit(LimitFromRate(rng.Float64() * 2))
			case 2:
				groups[i].SetLimitLease(LimitFromRate(0.1), time.Unix(1, 0))
			}
			demands[i] = Demand{Group: &groups[i], Want: want}
		}
		capacity := rng.Float64() * 48
		if rng.Intn(20) == 0 {
			capacity = -capacity
		}
		dt := time.Second
		if rng.Intn(50) == 0 {
			dt = 0
		}
		want := referenceAllocate(capacity, dt, demands)
		got := make([]float64, n)
		AllocateInto(capacity, dt, demands, got, &scratch)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %d (capacity %v, %d groups): grant[%d] = %v, reference %v",
					c, capacity, n, i, got[i], want[i])
			}
		}
	}
}

func TestCapThenUncapRestoresThroughput(t *testing.T) {
	// Simulates the §6 case-study pattern: a batch group is capped for a
	// while, then released, and its allocation recovers.
	var g Group
	unconstrained := allocate(8, Demand{&g, 3})[0]
	g.SetLimit(LimitFromRate(0.1))
	capped := allocate(8, Demand{&g, 3})[0]
	g.ClearLimit()
	restored := allocate(8, Demand{&g, 3})[0]
	if !almostEqual(unconstrained, 3, 1e-9) || !almostEqual(capped, 0.1, 1e-9) || !almostEqual(restored, 3, 1e-9) {
		t.Errorf("alloc sequence = %v %v %v", unconstrained, capped, restored)
	}
}

func TestLimitLeaseLifecycle(t *testing.T) {
	var g Group
	now := time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC)

	// Operator cap: no lease, never swept.
	g.SetLimit(LimitFromRate(0.1))
	if _, ok := g.LeaseExpiry(); ok {
		t.Error("operator cap should not be leased")
	}
	if g.RenewLease(now.Add(time.Minute)) {
		t.Error("RenewLease on unleased cap should report false")
	}
	if g.SweepLease(now.Add(24 * time.Hour)) {
		t.Error("sweep released operator cap")
	}
	if !g.Limit().IsLimited() {
		t.Fatal("operator cap vanished")
	}

	// Leased cap: renewable, expires exactly at the deadline.
	g.SetLimitLease(LimitFromRate(0.1), now.Add(time.Minute))
	if exp, ok := g.LeaseExpiry(); !ok || !exp.Equal(now.Add(time.Minute)) {
		t.Fatalf("LeaseExpiry = %v, %v", exp, ok)
	}
	if !g.RenewLease(now.Add(2 * time.Minute)) {
		t.Fatal("RenewLease should succeed on a leased cap")
	}
	// Renewal never shortens a lease.
	if g.RenewLease(now.Add(time.Second)); func() time.Time { e, _ := g.LeaseExpiry(); return e }().Before(now.Add(2 * time.Minute)) {
		t.Error("RenewLease shortened the lease")
	}
	if g.SweepLease(now.Add(2*time.Minute - time.Second)) {
		t.Error("sweep fired before expiry")
	}
	if !g.SweepLease(now.Add(2 * time.Minute)) {
		t.Error("sweep at expiry did not release the cap")
	}
	if g.Limit().IsLimited() {
		t.Error("expired lease left the limit in place")
	}
	if _, ok := g.LeaseExpiry(); ok {
		t.Error("expired lease not cleared")
	}
	if g.SweepLease(now.Add(time.Hour)) {
		t.Error("a swept group was swept again")
	}

	// SetLimit after a lease clears the lease (operator override).
	g.SetLimitLease(LimitFromRate(0.2), now.Add(time.Minute))
	g.SetLimit(LimitFromRate(0.2))
	if _, ok := g.LeaseExpiry(); ok {
		t.Error("SetLimit should drop any prior lease")
	}
	g.ClearLimit()
}

// sortSortAllocate is AllocateInto as it was before sortByCeil: every
// list sorted by sort.Sort through entrySorter, whatever its length.
func sortSortAllocate(capacity float64, demands []Demand) []float64 {
	grants := make([]float64, len(demands))
	s := &AllocScratch{}
	for i, d := range demands {
		ceil := d.Want
		if ceil < 0 {
			ceil = 0
		}
		if r := d.Group.limit.Rate(); r < ceil {
			ceil = r
		}
		s.entries = append(s.entries, allocEntry{idx: i, ceil: ceil})
	}
	sort.Sort((*entrySorter)(s))
	remaining := capacity
	for k, e := range s.entries {
		grant := math.Min(e.ceil, remaining/float64(len(s.entries)-k))
		grants[e.idx] = grant
		remaining -= grant
	}
	return grants
}

// TestAllocateIntoMatchesSortSort: for n = 0…16 groups, on seeded
// wants drawn from a few values (so ceilings tie often), zero wants
// and caps (zero-rate, equal to a want, random), AllocateInto's grants
// equal the sort.Sort form's bit for bit — across the typed insertion
// sort's 12-entry limit, where the order of tied entries decides which
// group gets which share.
func TestAllocateIntoMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var scratch AllocScratch
	for n := 0; n <= 16; n++ {
		for c := 0; c < 2000; c++ {
			groups := make([]Group, n)
			demands := make([]Demand, n)
			for i := range demands {
				want := float64(rng.Intn(5)) / 2 // 0, 0.5, …, 2: ties and zero wants
				if rng.Intn(3) == 0 {
					want = rng.Float64() * 4
				}
				switch rng.Intn(5) {
				case 0:
					groups[i].SetLimit(LimitFromRate(0))
				case 1:
					groups[i].SetLimit(LimitFromRate(float64(rng.Intn(4)) / 2))
				case 2:
					groups[i].SetLimit(LimitFromRate(rng.Float64() * 2))
				}
				demands[i] = Demand{Group: &groups[i], Want: want}
			}
			capacity := float64(1 + rng.Intn(16))
			want := sortSortAllocate(capacity, demands)
			got := make([]float64, n)
			AllocateInto(capacity, time.Second, demands, got, &scratch)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d case %d (capacity %v): grant[%d] = %v, sort.Sort form %v",
						n, c, capacity, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAllocateIntoEarlyExitMatchesWaterFilling: AllocateInto's grants
// equal those of sortSortAllocate, which always water-fills, bit for
// bit when the ceilings sum to just under, exactly at, and just over
// capacity·(1−1e-9), where the early exit starts and stops, and when
// they sum to within a few ulps of capacity itself, where rounding can
// leave a group short of its ceiling and only the margin keeps the exit
// out. Wants include zero, negative and negative-zero ones, and groups
// are capped at zero, at a want or at a random rate. Both sides of the
// margin must be reached.
func TestAllocateIntoEarlyExitMatchesWaterFilling(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var scratch AllocScratch
	var under, over int
	for c := 0; c < 20000; c++ {
		n := 1 + rng.Intn(16)
		groups := make([]Group, n)
		demands := make([]Demand, n)
		for i := range demands {
			var want float64
			switch rng.Intn(6) {
			case 0:
				want = 0
			case 1:
				want = -rng.Float64()
			case 2:
				want = math.Copysign(0, -1)
			case 3:
				want = float64(rng.Intn(5)) / 2
			default:
				want = rng.Float64() * 4
			}
			switch rng.Intn(5) {
			case 0:
				groups[i].SetLimit(LimitFromRate(0))
			case 1:
				groups[i].SetLimit(LimitFromRate(math.Max(want, 0)))
			case 2:
				groups[i].SetLimit(LimitFromRate(rng.Float64() * 2))
			}
			demands[i] = Demand{Group: &groups[i], Want: want}
		}
		// The capacity at which the ceilings' sum sits at the margin,
		// nudged a few ulps either way.
		sum := 0.0
		for _, d := range demands {
			ceil := math.Max(d.Want, 0)
			if r := d.Group.limit.Rate(); r < ceil {
				ceil = r
			}
			sum += ceil
		}
		if sum == 0 {
			sum = 1
		}
		capacity := sum / (1 - 1e-9)
		if c%2 == 1 {
			capacity = sum
		}
		for k := rng.Intn(9) - 4; k != 0; {
			if k > 0 {
				capacity, k = math.Nextafter(capacity, math.Inf(1)), k-1
			} else {
				capacity, k = math.Nextafter(capacity, 0), k+1
			}
		}
		if rng.Intn(4) == 0 {
			capacity *= 1 + (rng.Float64()-0.5)*1e-8 // around the margin, not on it
		}
		want := sortSortAllocate(capacity, demands)
		got := make([]float64, n)
		AllocateInto(capacity, time.Second, demands, got, &scratch)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d (capacity %v, %d groups): grant[%d] = %v, water-filling %v",
					c, capacity, n, i, got[i], want[i])
			}
		}
		if sum <= capacity*(1-1e-9) {
			under++
		} else {
			over++
		}
	}
	if under == 0 || over == 0 {
		t.Errorf("%d cases fit under the margin and %d did not; want both", under, over)
	}
}
