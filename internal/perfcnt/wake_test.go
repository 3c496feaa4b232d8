package perfcnt

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
)

// scanSampler is Sampler as it was before it kept its next window
// edge, kept as the reference: its Tick must be called on every tick.
type scanSampler struct {
	cfg      Config
	epoch    time.Time
	hasEpoch bool
	inWindow bool
	start    time.Time
	snap     Snapshot
	cur      Snapshot
	meas     []Measurement
}

func (s *scanSampler) Tick(now time.Time, readInto func(*Snapshot)) []Measurement {
	if !s.hasEpoch {
		s.epoch = now
		s.hasEpoch = true
	}
	phase := now.Sub(s.epoch) % s.cfg.Interval
	var out []Measurement
	if s.inWindow && now.Sub(s.start) >= s.cfg.Duration {
		s.cur.Reset()
		readInto(&s.cur)
		s.cur.sort()
		out = s.finish(now)
		s.inWindow = false
	}
	if !s.inWindow && phase < s.cfg.Duration {
		s.inWindow = true
		s.start = now
		s.snap.Reset()
		readInto(&s.snap)
		s.snap.sort()
	}
	return out
}

func (s *scanSampler) finish(now time.Time) []Measurement {
	elapsed := now.Sub(s.start)
	out := s.meas[:0]
	prevID, prevCnt := s.snap.Tasks, s.snap.Counts
	curID, curCnt := s.cur.Tasks, s.cur.Counts
	i, j := 0, 0
	for i < len(prevID) && j < len(curID) {
		switch c := prevID[i].Compare(curID[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			d := curCnt[j].Sub(prevCnt[i])
			if d.Instructions > 0 {
				out = append(out, Measurement{
					Task:     curID[j],
					Start:    s.start,
					Duration: elapsed,
					CPUUsage: d.CPUSeconds / elapsed.Seconds(),
					CPI:      d.CPI(),
					L3MPKI:   d.L3MPKI(),
				})
			}
			i++
			j++
		}
	}
	s.meas = out
	return out
}

// sameMeasurements compares bit for bit.
func sameMeasurements(a, b []Measurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Task != y.Task || !x.Start.Equal(y.Start) || x.Duration != y.Duration ||
			math.Float64bits(x.CPUUsage) != math.Float64bits(y.CPUUsage) ||
			math.Float64bits(x.CPI) != math.Float64bits(y.CPI) ||
			math.Float64bits(x.L3MPKI) != math.Float64bits(y.L3MPKI) {
			return false
		}
	}
	return true
}

// TestSamplerWakeMatchesScan: a sampler ticked only from Next on
// returns the same measurements, on the same ticks, and reads its
// counters on the same ticks, as the reference ticked on every one.
// Tick sequences are seeded and non-decreasing: repeated instants,
// 1 s steps, steps that land exactly on window edges, gaps longer than
// Interval, and a first tick at an odd offset into a minute. Tasks come
// and go, some retire no instructions, and the counters grow by a
// random amount each tick.
func TestSamplerWakeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	configs := []Config{
		paperConfig,
		{Duration: 10 * time.Second, Interval: 10 * time.Second}, // always counting
		{Duration: 3 * time.Second, Interval: 7 * time.Second},
		{Duration: 1500 * time.Millisecond, Interval: 4 * time.Second},
	}
	for c := 0; c < 400; c++ {
		cfg := configs[c%len(configs)]
		cfg.sanitize()
		steps := []time.Duration{
			0, time.Second, time.Second, time.Second, cfg.Duration, cfg.Interval,
			cfg.Interval - cfg.Duration, 2*cfg.Interval + cfg.Duration, 3*cfg.Interval + time.Second/3,
		}
		start := time.Date(2011, 11, 1, 0, 0, 17, int(rng.Int63n(1e9)), time.UTC)

		// The world both samplers read: which tasks are present and their
		// cumulative counters, advanced once per tick.
		counters := map[model.TaskID]Counters{}
		read := func(s *Snapshot) {
			s.Reset()
			for id, cnt := range counters {
				s.Append(id, cnt)
			}
		}
		var ref scanSampler
		ref.cfg = cfg
		woken := NewSampler(cfg)
		var refReads, wokenReads []int
		now := start
		for tick := 0; tick < 300; tick++ {
			if tick > 0 {
				now = now.Add(steps[rng.Intn(len(steps))])
			}
			for k := 0; k < 6; k++ {
				id := model.TaskID{Job: "j", Index: k}
				switch r := rng.Intn(20); {
				case r == 0:
					delete(counters, id)
				case r < 4: // present, idle
					if _, ok := counters[id]; !ok {
						counters[id] = Counters{}
					}
				default:
					cnt := counters[id]
					cnt.Accumulate(rng.Float64(), 0.5+rng.Float64(), 4*rng.Float64(), 2.6)
					counters[id] = cnt
				}
			}
			want := ref.Tick(now, func(s *Snapshot) {
				refReads = append(refReads, tick)
				read(s)
			})
			var got []Measurement
			if !now.Before(woken.Next()) {
				got = woken.Tick(now, func(s *Snapshot) {
					wokenReads = append(wokenReads, tick)
					read(s)
				})
			}
			if !sameMeasurements(got, want) {
				t.Fatalf("config %+v, case %d, tick %d at %v: measurements\n got %+v\nwant %+v",
					cfg, c, tick, now.Sub(start), got, want)
			}
		}
		if len(refReads) == 0 {
			t.Fatalf("case %d: the reference never read its counters", c)
		}
		if len(wokenReads) != len(refReads) {
			t.Fatalf("case %d: counters read on ticks %v, reference %v", c, wokenReads, refReads)
		}
		for i := range refReads {
			if wokenReads[i] != refReads[i] {
				t.Fatalf("case %d: counters read on ticks %v, reference %v", c, wokenReads, refReads)
			}
		}
	}
}
