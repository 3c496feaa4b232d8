package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// genConfig shapes the synthetic sample stream of a daemon workload.
type genConfig struct {
	// machines logical machines each publish one batch of batch samples
	// per round.
	machines, batch int
	// jobs is the number of jobs; with two platforms that is up to
	// 2·jobs spec keys.
	jobs int
	// zipf > 1 draws each task's job from a Zipf law with that exponent,
	// so a few jobs are huge and the tail falls below MinTasks; 0 deals
	// tasks to jobs evenly, so every key has the same task count.
	zipf float64
	// platformB is the share of machines on platform B.
	platformB float64
	// rounds is how many distinct rounds are generated; a run cycles
	// through them, so memory stays bounded however long it measures.
	rounds int
}

func (g genConfig) samplesPerRound() int { return g.machines * g.batch }

// keyMoments are one key's sample statistics over one round (or, after
// merging, over an interval of rounds).
type keyMoments struct {
	n         int64
	mean, m2  float64
	usageMean float64
}

// merge folds o into m (Chan et al. parallel update).
func (m *keyMoments) merge(o keyMoments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.n), float64(o.n)
	tot := n1 + n2
	delta := o.mean - m.mean
	m.mean += delta * n2 / tot
	m.m2 += o.m2 + delta*delta*n1*n2/tot
	m.usageMean += (o.usageMean - m.usageMean) * n2 / tot
	m.n += o.n
}

// generated is a seeded sample stream plus what the reference needs to
// predict the specs the aggregator must build from it.
type generated struct {
	cfg genConfig
	// rounds[r][m] is machine m's batch in generated round r.
	rounds [][][]model.Sample
	// keys are the distinct job×platform keys, sorted by (job, platform).
	keys []model.SpecKey
	// tasks[k] is the number of distinct tasks reporting for keys[k]
	// (the same tasks report every round).
	tasks []int
	// moments[r][k] summarizes keys[k]'s samples in generated round r.
	moments [][]keyMoments
}

var genEpoch = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

// generate builds the sample stream for seed. Equal seeds give
// identical streams; nothing else about the run reaches the program
// under test.
func generate(cfg genConfig, seed int64) *generated {
	rng := rand.New(rand.NewSource(seed))
	platforms := []model.Platform{model.PlatformA, model.PlatformB}
	jobNames := make([]model.JobName, cfg.jobs)
	baseCPI := make([][2]float64, cfg.jobs)
	for j := range jobNames {
		jobNames[j] = model.JobName(fmt.Sprintf("job-%04d", j))
		baseCPI[j] = [2]float64{0.8 + 1.5*rng.Float64(), 1.0 + 1.5*rng.Float64()}
	}
	var zipf *rand.Zipf
	if cfg.zipf > 1 {
		zipf = rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.jobs-1))
	}

	// Fix the fleet: which platform each machine is, and which task
	// sits in each of its sample slots.
	type slot struct {
		job  int
		task model.TaskID
	}
	nB := int(float64(cfg.machines) * cfg.platformB)
	machinePlat := make([]int, cfg.machines)
	machineName := make([]string, cfg.machines)
	slots := make([][]slot, cfg.machines)
	nextIndex := make([]int, cfg.jobs)
	dealt := [2]int{}
	for m := 0; m < cfg.machines; m++ {
		machineName[m] = fmt.Sprintf("m-%05d", m)
		if m < nB {
			machinePlat[m] = 1
		}
		p := machinePlat[m]
		slots[m] = make([]slot, cfg.batch)
		for s := range slots[m] {
			var j int
			if zipf != nil {
				j = int(zipf.Uint64())
			} else {
				j = dealt[p] % cfg.jobs
				dealt[p]++
			}
			slots[m][s] = slot{job: j, task: model.TaskID{Job: jobNames[j], Index: nextIndex[j]}}
			nextIndex[j]++
		}
	}

	// Index the keys that actually occur.
	type jp struct{ job, plat int }
	taskCount := make(map[jp]int)
	for m := range slots {
		for _, sl := range slots[m] {
			taskCount[jp{sl.job, machinePlat[m]}]++
		}
	}
	occurring := make([]jp, 0, len(taskCount))
	for k := range taskCount {
		occurring = append(occurring, k)
	}
	sort.Slice(occurring, func(a, b int) bool {
		ka, kb := occurring[a], occurring[b]
		if jobNames[ka.job] != jobNames[kb.job] {
			return jobNames[ka.job] < jobNames[kb.job]
		}
		return platforms[ka.plat] < platforms[kb.plat]
	})
	g := &generated{cfg: cfg}
	keyIndex := make(map[jp]int, len(occurring))
	for i, k := range occurring {
		keyIndex[k] = i
		g.keys = append(g.keys, model.SpecKey{Job: jobNames[k.job], Platform: platforms[k.plat]})
		g.tasks = append(g.tasks, taskCount[k])
	}

	g.rounds = make([][][]model.Sample, cfg.rounds)
	g.moments = make([][]keyMoments, cfg.rounds)
	for r := 0; r < cfg.rounds; r++ {
		at := genEpoch.Add(time.Duration(r) * time.Minute)
		g.rounds[r] = make([][]model.Sample, cfg.machines)
		perKeyCPI := make([][]float64, len(g.keys))
		perKeyUsage := make([]float64, len(g.keys))
		for m := 0; m < cfg.machines; m++ {
			p := machinePlat[m]
			batch := make([]model.Sample, cfg.batch)
			tid := trace.SampleTraceID(machineName[m], uint64(r+1))
			for s, sl := range slots[m] {
				cpi := baseCPI[sl.job][p] * (1 + 0.08*rng.NormFloat64())
				if cpi < 0.05 {
					cpi = 0.05
				}
				usage := 0.05 + 1.5*rng.Float64()
				batch[s] = model.Sample{
					Job:       sl.task.Job,
					Task:      sl.task,
					Platform:  platforms[p],
					Timestamp: at,
					CPUUsage:  usage,
					CPI:       cpi,
					Machine:   machineName[m],
					TraceID:   tid,
				}
				k := keyIndex[jp{sl.job, p}]
				perKeyCPI[k] = append(perKeyCPI[k], cpi)
				perKeyUsage[k] += usage
			}
			g.rounds[r][m] = batch
		}
		g.moments[r] = make([]keyMoments, len(g.keys))
		for k, xs := range perKeyCPI {
			g.moments[r][k] = twoPass(xs, perKeyUsage[k])
		}
	}
	return g
}

// twoPass computes count, mean and sum of squared deviations the
// textbook way — deliberately not the streaming update the program
// under test uses.
func twoPass(xs []float64, usageSum float64) keyMoments {
	n := len(xs)
	if n == 0 {
		return keyMoments{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	return keyMoments{n: int64(n), mean: mean, m2: m2, usageMean: usageSum / float64(n)}
}

// reference predicts, from the generated samples alone, the spec table
// the aggregator must hold after each recompute: per-interval mean and
// unbiased variance per key, blended into history with the paper's age
// weighting.
type reference struct {
	g       *generated
	params  core.Params
	pending []keyMoments
	history []refHistory
}

type refHistory struct {
	weight, mean, variance, usageMean float64
	tasks                             int
}

func newReference(g *generated, p core.Params) *reference {
	return &reference{
		g:       g,
		params:  p.Sanitize(),
		pending: make([]keyMoments, len(g.keys)),
		history: make([]refHistory, len(g.keys)),
	}
}

// published accounts one more publication of generated round r.
func (ref *reference) published(r int) {
	for k := range ref.pending {
		ref.pending[k].merge(ref.g.moments[r][k])
	}
}

// recompute closes the interval and returns every key's expected spec,
// in key order, stamped now.
func (ref *reference) recompute(now time.Time) []model.Spec {
	out := make([]model.Spec, 0, len(ref.g.keys))
	for k, key := range ref.g.keys {
		fresh := ref.pending[k]
		h := &ref.history[k]
		if fresh.n > 0 {
			n := float64(fresh.n)
			var freshVar float64
			if fresh.n > 1 {
				freshVar = fresh.m2 / (n - 1)
			}
			w := h.weight * ref.params.AgeWeight
			tot := w + n
			mean := h.mean + (fresh.mean-h.mean)*n/tot
			h.variance = (w*(h.variance+(mean-h.mean)*(mean-h.mean)) +
				n*(freshVar+(mean-fresh.mean)*(mean-fresh.mean))) / tot
			h.mean = mean
			h.usageMean = (w*h.usageMean + n*fresh.usageMean) / tot
			h.weight = tot
			h.tasks = ref.g.tasks[k]
		}
		ref.pending[k] = keyMoments{}
		if h.weight == 0 {
			continue
		}
		out = append(out, model.Spec{
			Job:          key.Job,
			Platform:     key.Platform,
			NumSamples:   int64(h.weight + 0.5),
			NumTasks:     h.tasks,
			CPUUsageMean: h.usageMean,
			CPIMean:      h.mean,
			CPIStddev:    math.Sqrt(math.Max(h.variance, 0)),
			UpdatedAt:    now,
		})
	}
	return out
}

// robust filters specs to the ones the aggregator pushes.
func (ref *reference) robust(specs []model.Spec) []model.Spec {
	var out []model.Spec
	for _, s := range specs {
		if s.Robust(ref.params.MinTasks, ref.params.MinSamplesPerTask) {
			out = append(out, s)
		}
	}
	return out
}

// specTolerance is the relative error allowed between a received spec
// and the reference: the aggregator folds samples in arrival order,
// which differs run to run across connections, so the last few bits of
// its streaming moments do too.
const specTolerance = 1e-9

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= specTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// specMismatch describes how got differs from want ("" if it does not).
func specMismatch(got, want model.Spec) string {
	switch {
	case got.Key() != want.Key():
		return fmt.Sprintf("key %s, want %s", got.Key(), want.Key())
	case got.NumTasks != want.NumTasks:
		return fmt.Sprintf("%s: %d tasks, want %d", want.Key(), got.NumTasks, want.NumTasks)
	case got.NumSamples != want.NumSamples:
		return fmt.Sprintf("%s: %d samples, want %d", want.Key(), got.NumSamples, want.NumSamples)
	case !closeEnough(got.CPIMean, want.CPIMean):
		return fmt.Sprintf("%s: CPI mean %v, want %v", want.Key(), got.CPIMean, want.CPIMean)
	case !closeEnough(got.CPIStddev, want.CPIStddev):
		return fmt.Sprintf("%s: CPI stddev %v, want %v", want.Key(), got.CPIStddev, want.CPIStddev)
	case !closeEnough(got.CPUUsageMean, want.CPUUsageMean):
		return fmt.Sprintf("%s: usage mean %v, want %v", want.Key(), got.CPUUsageMean, want.CPUUsageMean)
	case !got.UpdatedAt.Equal(want.UpdatedAt):
		return fmt.Sprintf("%s: updated at %v, want %v", want.Key(), got.UpdatedAt, want.UpdatedAt)
	}
	return ""
}
