package workload

import (
	"time"

	"repro/internal/interference"
)

// CapReaction is how a MapReduce-style worker behaves when it notices
// it is being starved of CPU (hard-capped). The paper's case studies
// document all three (§6.2).
type CapReaction int

const (
	// ReactTolerate: keep demanding, run slowly, resume when the cap
	// lifts (the common case — batch frameworks already handle
	// stragglers).
	ReactTolerate CapReaction = iota
	// ReactLameDuck: burst threads trying to offload work to peers
	// while capped, then run in a 2-thread "lame-duck mode" for tens
	// of minutes after the cap lifts before reverting (Case 5).
	ReactLameDuck
	// ReactExit: terminate after enduring SurviveCaps capping episodes,
	// hoping to be rescheduled somewhere better (Case 6's worker
	// survived the first throttling but exited during the second).
	ReactExit
)

// mrPhase is the internal state of a lame-duck worker.
type mrPhase int

const (
	phaseNormal mrPhase = iota
	phaseCapped
	phaseLameDuck
)

// MapReduce is one batch worker of a MapReduce-style job.
type MapReduce struct {
	// CPU is the normal demand in CPU-sec/sec.
	CPU float64
	// Threads is the normal worker thread count (the paper's Case 5
	// worker ran about 8).
	Threads int
	// Reaction selects the cap behaviour.
	Reaction CapReaction
	// SurviveCaps is, for ReactExit, how many completed capping
	// episodes the worker tolerates before exiting during the next
	// one (Case 6: survives 1, dies in episode 2).
	SurviveCaps int
	// LameDuckFor is how long the worker stays in lame-duck mode after
	// a cap lifts (default 30 minutes: "tens of minutes").
	LameDuckFor time.Duration
	// BurstThreads is the thread count while capped in lame-duck
	// reaction (Case 5 observed ≈80).
	BurstThreads int
	// StarvationRatio: the worker considers itself capped when granted
	// < StarvationRatio × demand (default 0.5).
	StarvationRatio float64
	// StarvationTicks: consecutive starved ticks before reacting
	// (default 5).
	StarvationTicks int

	phase        mrPhase
	starvedTicks int
	capEpisodes  int
	lameDuckEnd  time.Time
	exited       bool
	work         float64 // completed work units (CPU-seconds)
}

// NewMapReduce returns a worker with the case-study defaults.
func NewMapReduce(cpu float64, reaction CapReaction) *MapReduce {
	return &MapReduce{
		CPU:             cpu,
		Threads:         8,
		Reaction:        reaction,
		SurviveCaps:     1,
		LameDuckFor:     30 * time.Minute,
		BurstThreads:    80,
		StarvationRatio: 0.5,
		StarvationTicks: 5,
	}
}

// Demand implements machine.Workload.
func (m *MapReduce) Demand(time.Time) (float64, int) {
	if m.exited {
		return 0, 0
	}
	switch m.phase {
	case phaseCapped:
		if m.Reaction == ReactLameDuck {
			// Spawning helpers to push work to peers: thread count
			// balloons while the CPU cap pins actual usage.
			return m.CPU, m.BurstThreads
		}
		return m.CPU, m.Threads
	case phaseLameDuck:
		return m.CPU * 0.2, 2
	default:
		return m.CPU, m.Threads
	}
}

// Deliver implements machine.Workload.
func (m *MapReduce) Deliver(now time.Time, granted float64, dt time.Duration, _ interference.Result) {
	if m.exited {
		return
	}
	m.work += granted * dt.Seconds()
	demand, _ := m.Demand(now)

	starved := demand > 0 && granted < m.StarvationRatio*demand
	switch m.phase {
	case phaseNormal:
		if starved {
			m.starvedTicks++
			if m.starvedTicks >= m.StarvationTicks {
				m.phase = phaseCapped
				m.capEpisodes++
				if m.Reaction == ReactExit && m.capEpisodes > m.SurviveCaps {
					// Quit mid-episode, hoping for a better machine.
					m.exited = true
				}
			}
		} else {
			m.starvedTicks = 0
		}
	case phaseCapped:
		if !starved {
			m.starvedTicks = 0
			switch m.Reaction {
			case ReactLameDuck:
				m.phase = phaseLameDuck
				m.lameDuckEnd = now.Add(m.LameDuckFor)
			default:
				m.phase = phaseNormal
			}
		}
	case phaseLameDuck:
		if now.After(m.lameDuckEnd) {
			m.phase = phaseNormal
		}
	}
}

// Done implements machine.Workload.
func (m *MapReduce) Done() bool { return m.exited }

// CapEpisodes returns how many capping episodes the worker has
// entered.
func (m *MapReduce) CapEpisodes() int { return m.capEpisodes }

// Work returns completed work in CPU-seconds.
func (m *MapReduce) Work() float64 { return m.work }

// InLameDuck reports whether the worker is currently in lame-duck
// mode.
func (m *MapReduce) InLameDuck() bool { return m.phase == phaseLameDuck }
