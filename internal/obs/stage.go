package obs

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Stage derives a private copy of a metric set for one concurrent
// writer. A metric set is a struct whose fields are all metric handles
// (*Counter, *Gauge, *Histogram, *CounterVec), as a package's NewMetrics
// builds. local has a fresh cell behind every non-nil handle of shared —
// same bucket layout, same label names — and drain folds whatever the
// cells accumulated into shared's series, in field order, leaving them
// empty.
//
// It is the metric analogue of EventBuffer: writers that tick
// concurrently each update their own copy (uncontended cache lines), and
// one serial coordinator calls the drains in a fixed order, so the
// shared series receive their float additions in that order however the
// writers interleaved. A writer may keep updating local while drain runs
// — an update lands in this drain or the next — but drain must not run
// concurrently with itself.
//
// A local gauge holds the change since the last drain, so writers may
// only move it relatively (Inc, Dec, Add); a gauge that is Set belongs to
// a component that writes the shared set directly.
//
// Reflection happens here only. drain walks typed pointer pairs built
// once, and only for a copy that was written: every handle of local
// shares one written flag, which a write sets and drain clears, so
// draining an idle copy costs one atomic load (no store, no
// allocation) however many cells it has. A written copy's drain costs
// one load per cell, a labelled counter one per series its writer has
// ever touched.
//
// written reports whether local was written since the last drain: a
// coordinator may skip the drain of a copy for which it is false. It
// may be called concurrently with the writer; a write it misses sets
// the flag after the call.
func Stage[T any](shared *T) (local *T, drain func(), written func() bool) {
	local = new(T)
	flag := new(atomic.Bool)
	sv, lv := reflect.ValueOf(shared).Elem(), reflect.ValueOf(local).Elem()
	cells := make([]staged, 0, sv.NumField())
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() == reflect.Pointer && sv.Field(i).IsNil() {
			continue // uninstrumented field: the local handle stays nil too
		}
		var cell staged
		var handle any
		switch s := sv.Field(i).Interface().(type) {
		case *Counter:
			l := &Counter{w: flag}
			cell, handle = stagedFloat{&l.v, &s.v}, l
		case *Gauge:
			l := &Gauge{w: flag}
			cell, handle = stagedFloat{&l.v, &s.v}, l
		case *Histogram:
			l := newHistogram(s.bounds)
			l.w = flag
			cell, handle = stagedHistogram{l, s}, l
		case *CounterVec:
			l := &CounterVec{fam: &family{
				name: s.fam.name, labels: s.fam.labels, series: make(map[string]any),
				written: flag,
			}}
			cell, handle = &stagedCounterVec{local: l, shared: s}, l
		default:
			panic(fmt.Sprintf("obs: Stage: field %s of %T is a %T, not a metric handle",
				sv.Type().Field(i).Name, shared, s))
		}
		lv.Field(i).Set(reflect.ValueOf(handle))
		cells = append(cells, cell)
	}
	drain = func() {
		// Clear before reading the cells: a write that lands after the
		// clear sets the flag again and is folded by the next drain.
		if !flag.Load() {
			return
		}
		flag.Store(false)
		for _, c := range cells {
			c.drain()
		}
	}
	return local, drain, flag.Load
}

// staged is one handle field of a staged metric set: a private cell
// paired with the shared series it folds into.
type staged interface{ drain() }

// stagedFloat is a counter or a gauge: one float cell either way. (A
// local counter only ever holds a positive amount, so the plain add is
// the counter's add.)
type stagedFloat struct{ local, shared *atomicFloat }

func (p stagedFloat) drain() {
	if p.local.bits.Load() != 0 {
		p.shared.Add(p.local.swap(0))
	}
}

type stagedHistogram struct{ local, shared *Histogram }

func (p stagedHistogram) drain() {
	l, s := p.local, p.shared
	if l.count.Load() == 0 {
		return
	}
	for i := range l.counts {
		if l.counts[i].Load() != 0 {
			s.counts[i].Add(l.counts[i].Swap(0))
		}
	}
	if v := l.sum.swap(0); v != 0 {
		s.sum.Add(v)
	}
	s.count.Add(l.count.Swap(0))
}

// stagedCounterVec pairs every series the local family has created with
// the shared series of the same label values. The pairs are rebuilt
// only when the local family has grown since the last drain.
type stagedCounterVec struct {
	local, shared *CounterVec
	series        []stagedFloat
}

func (p *stagedCounterVec) drain() {
	if int(p.local.fam.nseries.Load()) != len(p.series) {
		p.pair()
	}
	for _, s := range p.series {
		s.drain()
	}
}

func (p *stagedCounterVec) pair() {
	f := p.local.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	p.series = p.series[:0]
	for key, s := range f.series {
		shared := p.shared.With(decodeLabels(key, len(f.labels))...)
		p.series = append(p.series, stagedFloat{&s.(*Counter).v, &shared.v})
	}
}
