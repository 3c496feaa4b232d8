package workload

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/interference"
)

// Tier identifies a node's position in the web-search serving tree.
type Tier int

const (
	// TierLeaf nodes do the index-scanning compute work.
	TierLeaf Tier = iota
	// TierIntermediate nodes fan out to leaves and merge results.
	TierIntermediate
	// TierRoot nodes front the query and wait on intermediates.
	TierRoot
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierLeaf:
		return "leaf"
	case TierIntermediate:
		return "intermediate"
	case TierRoot:
		return "root"
	default:
		return "tier?"
	}
}

// SearchTree is the shared coordination point of one search job's
// serving tree. Tasks publish their own-tier latency each tick; the
// next tick, upper tiers read the lower tier's aggregate. A typical
// web-search query touches thousands of leaves and its tail latency
// is set by the slowest shards (§2), so tiers read a high percentile
// of the tier below, not the mean.
//
// SearchTree is safe AND order-insensitive under parallel machine
// ticking. A task publishes into its own fields — the latency and the
// tree's epoch, which counts EndTicks — so a steady-state publish
// writes nothing shared. Only a task's first publish after it joins,
// or rejoins, takes the tree's mutex, to put the task on the member
// list. tail reads the previous tick's aggregate, which nothing writes
// during a tick. EndTick, which the cluster invokes at the serial tick
// barrier via OnTick, gathers the latencies of the members that
// published in the ending epoch, takes each tier's 95th percentile (an
// order statistic, so which machine ticked first cannot matter), and
// drops the members that did not publish — a task that exited or was
// evicted — so the list holds live tasks only; a dropped task that
// publishes again rejoins. A task publishes once per tick (its machine
// ticks it once per step): a second publish in one epoch replaces the
// first.
type SearchTree struct {
	mu      sync.Mutex    // guards members
	members []*SearchTask // tasks that published since they (re)joined
	epoch   uint64        // advanced by EndTick
	// vals is EndTick's per-tier scratch of this epoch's latencies.
	vals [3][]float64
	// previous-tick aggregates (tail latency per tier)
	last [3]float64
}

// NewSearchTree returns an empty tree.
func NewSearchTree() *SearchTree {
	t := &SearchTree{}
	for i := range t.last {
		t.last[i] = 1 // harmless non-zero default before first tick
	}
	return t
}

// publish records s's latency for the current epoch.
func (t *SearchTree) publish(s *SearchTask, latency float64) {
	s.published, s.epoch = latency, t.epoch
	if !s.member {
		s.member = true
		t.mu.Lock()
		t.members = append(t.members, s)
		t.mu.Unlock()
	}
}

// tail returns the previous tick's tail latency of a tier. It does not
// lock: only EndTick writes the aggregates, between ticks.
func (t *SearchTree) tail(tier Tier) float64 {
	return t.last[tier]
}

// EndTick rolls the current tick's published latencies into the
// aggregates upper tiers read next tick. Call it once per simulation
// tick after all machines have ticked.
func (t *SearchTree) EndTick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for tier := range t.vals {
		t.vals[tier] = t.vals[tier][:0]
	}
	live := t.members[:0]
	for _, s := range t.members {
		if s.epoch != t.epoch {
			s.member = false
			continue
		}
		live = append(live, s)
		t.vals[s.Tier] = append(t.vals[s.Tier], s.published)
	}
	clear(t.members[len(live):]) // let dropped tasks be collected
	t.members = live
	for tier, vals := range t.vals {
		if len(vals) > 0 {
			// Tail = 95th percentile of this tick's task latencies:
			// discarded-reply semantics make the tail, not the mean,
			// what upper tiers wait for.
			t.last[tier] = percentile95(vals)
		}
	}
	t.epoch++
}

// percentile95 returns the 95th percentile of xs — its ⌈0.95n⌉-th
// smallest value — reordering xs in place. It selects instead of
// sorting, in expected O(n); the value does not depend on the order of
// xs.
func percentile95(xs []float64) float64 {
	rank := (len(xs)*95 + 99) / 100 // ceil(0.95n), 1-based
	if rank < 1 {
		rank = 1
	}
	return selectKth(xs, rank-1)
}

// selectKth reorders xs so that xs[k] holds the value sorting xs would
// put there, and returns it: Hoare's selection, partitioning around
// the median of the range's first, middle and last values.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, pivot, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if pivot < a {
			a, pivot = pivot, a
		}
		if c < pivot {
			pivot = max(a, c)
		}
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ pivot ≤ xs[i..hi], and anything between equals
		// the pivot.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return xs[k]
}

// SearchTask is one task of a web-search job at a given tier. Its
// CPU demand follows the job's load curve; its reported latency is a
// mix of its own compute time (∝ its CPI) and the tier below's tail
// latency, with the own-compute share shrinking up the tree — which is
// why the paper's Figure 4 sees strong latency↔CPI correlation at the
// leaves and almost none at the root.
type SearchTask struct {
	Tier Tier
	Tree *SearchTree
	// Load drives CPU demand.
	Load LoadCurve
	// MaxCPU is the CPU demand at load 1.0.
	MaxCPU float64
	// Threads is the serving thread count.
	Threads int
	// BaseCPI is the task's uncontended CPI on its platform, used to
	// translate CPI inflation into compute-time inflation.
	BaseCPI float64
	// BaseLatencyMS is the own-compute latency at BaseCPI, in ms.
	BaseLatencyMS float64
	// OwnFraction is the share of reported latency attributable to own
	// compute (defaults by tier: leaf 1.0, intermediate 0.45, root 0.1).
	OwnFraction float64
	// RNG adds per-request service-time noise (nil disables).
	RNG *rand.Rand
	// NoiseSigma is the relative service-time noise (e.g. 0.05).
	NoiseSigma float64

	// latencySum and latencyTicks are the cumulative reported latency
	// (ms) and the number of ticks it sums over.
	latencySum   float64
	latencyTicks int
	stopped      bool

	// published is the latency the task published to Tree in epoch
	// epoch; member reports whether the task is on Tree's member list.
	published float64
	epoch     uint64
	member    bool
}

// NewSearchTask builds a search task with per-tier defaults.
func NewSearchTask(tier Tier, tree *SearchTree, load LoadCurve, maxCPU, baseCPI float64, rng *rand.Rand) *SearchTask {
	ownFrac := 1.0
	baseLat := 30.0
	threads := 24
	switch tier {
	case TierIntermediate:
		ownFrac = 0.45
		baseLat = 12.0
		threads = 32
	case TierRoot:
		ownFrac = 0.10
		baseLat = 5.0
		threads = 40
	}
	return &SearchTask{
		Tier:          tier,
		Tree:          tree,
		Load:          load,
		MaxCPU:        maxCPU,
		Threads:       threads,
		BaseCPI:       baseCPI,
		BaseLatencyMS: baseLat,
		OwnFraction:   ownFrac,
		RNG:           rng,
		NoiseSigma:    0.05,
	}
}

// Demand implements machine.Workload.
func (s *SearchTask) Demand(now time.Time) (float64, int) {
	if s.stopped {
		return 0, 0
	}
	level := 1.0
	if s.Load != nil {
		level = s.Load.Level(now)
	}
	// Serving systems keep a floor of background work (health checks,
	// index refresh) even at trough load.
	cpu := s.MaxCPU * (0.15 + 0.85*level)
	return cpu, s.Threads
}

// Deliver implements machine.Workload: compute this tick's reported
// latency from own CPI and the tier below.
func (s *SearchTask) Deliver(_ time.Time, _ float64, _ time.Duration, res interference.Result) {
	base := s.BaseCPI
	if base <= 0 {
		base = 1
	}
	own := s.BaseLatencyMS * (res.CPI / base)
	if s.RNG != nil && s.NoiseSigma > 0 {
		own *= 1 + s.NoiseSigma*s.RNG.NormFloat64()
		if own < 0 {
			own = 0
		}
	}
	var lower float64
	switch s.Tier {
	case TierIntermediate:
		lower = s.Tree.tail(TierLeaf)
	case TierRoot:
		lower = s.Tree.tail(TierIntermediate)
	}
	lat := own
	if s.Tier != TierLeaf {
		lat = s.OwnFraction*own + (1-s.OwnFraction)*(lower+own*0.1)
	}
	s.Tree.publish(s, lat)
	s.latencySum += lat
	s.latencyTicks++
}

// Done implements machine.Workload.
func (s *SearchTask) Done() bool { return s.stopped }

// Stop drains the task (controlled shutdown).
func (s *SearchTask) Stop() { s.stopped = true }

// LatencyTotals returns the cumulative reported latency (ms) and the
// number of ticks it sums over. Read them at the two edges of an
// interval: the differences' ratio is the interval's mean latency.
func (s *SearchTask) LatencyTotals() (sumMS float64, ticks int) {
	return s.latencySum, s.latencyTicks
}
