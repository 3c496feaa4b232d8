package workload

import (
	"math/rand"
	"sort"
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
// ticking: publish only appends to the current tick's accumulator
// (the percentile sorts, so append order cannot matter), tail reads
// the previous tick's aggregate (stable for the whole tick), and the
// roll-over happens in EndTick, which the cluster invokes at the
// serial tick barrier via OnTick.
type SearchTree struct {
	mu sync.Mutex
	// current-tick accumulators
	cur [3][]float64
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

func (t *SearchTree) publish(tier Tier, latency float64) {
	t.mu.Lock()
	t.cur[tier] = append(t.cur[tier], latency)
	t.mu.Unlock()
}

// tail returns the previous tick's tail latency of a tier.
func (t *SearchTree) tail(tier Tier) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[tier]
}

// EndTick rolls the current tick's published latencies into the
// aggregates lower tiers read next tick. Call it once per simulation
// tick after all machines have ticked.
func (t *SearchTree) EndTick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for tier := range t.cur {
		if n := len(t.cur[tier]); n > 0 {
			// Tail = 95th percentile of this tick's task latencies:
			// discarded-reply semantics make the tail, not the mean,
			// what upper tiers wait for. The accumulator is emptied
			// right after, so the percentile may reorder it.
			vals := t.cur[tier]
			t.last[tier] = percentile95(vals)
			t.cur[tier] = vals[:0]
		}
	}
}

// percentile95 returns the 95th percentile of xs, sorting xs in place.
func percentile95(xs []float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	sort.Float64s(xs)
	rank := (n*95 + 99) / 100 // ceil(0.95n), 1-based
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
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
func (s *SearchTask) Deliver(now time.Time, granted float64, dt time.Duration, res interference.Result) {
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
	s.Tree.publish(s.Tier, lat)
	s.latencySum += lat
	s.latencyTicks++
	// The level is unused, but a jittered curve draws from the task's
	// seeded load stream on every call: this is the stream's second draw
	// per tick (Demand makes the first), and removing it would shift every
	// later draw and with it every seeded run's specs and incidents.
	if s.Load != nil {
		_ = s.Load.Level(now)
	}
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
