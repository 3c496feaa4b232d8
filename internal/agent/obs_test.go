package agent

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestLocalMetricsDrainTo checks that a staged copy of the core set —
// the one set an agent writes — folds into the registered set and is
// reset by the drain — the contract the cluster's serial commit phase
// relies on — for EVERY handle field: the walk is over the struct, so a
// metric added to the set later is covered without touching this test,
// and one that staging left out would fail it.
func TestLocalMetricsDrainTo(t *testing.T) {
	t.Run("core", func(t *testing.T) { everyFieldDrains(t, core.NewMetrics(obs.NewRegistry())) })
}

// everyFieldDrains writes a distinct amount to each handle field of a
// staged copy of shared, drains, and expects to read exactly that
// amount from the same field of shared and nothing from the copy.
func everyFieldDrains[T any](t *testing.T, shared *T) {
	local, drain, _ := obs.Stage(shared)
	sv, lv := reflect.ValueOf(shared).Elem(), reflect.ValueOf(local).Elem()
	// read returns what a handle holds, as one number.
	read := func(handle any) float64 {
		switch h := handle.(type) {
		case *obs.Counter:
			return h.Value()
		case *obs.Gauge:
			return h.Value()
		case *obs.Histogram:
			return h.Sum() + 1000*float64(h.Count())
		case *obs.CounterVec:
			return series(h).Value()
		}
		t.Fatalf("%T is a kind of handle this test does not know how to read", handle)
		return 0
	}
	if sv.NumField() == 0 {
		t.Fatal("metric set has no fields")
	}
	for i := 0; i < sv.NumField(); i++ {
		name, amount := sv.Type().Field(i).Name, float64(i+1)
		if lv.Field(i).IsNil() {
			t.Errorf("%s: no local handle", name)
			continue
		}
		if lv.Field(i).Pointer() == sv.Field(i).Pointer() {
			t.Errorf("%s: the copy shares its cell with the registered set", name)
		}
		switch h := lv.Field(i).Interface().(type) {
		case *obs.Counter:
			h.Add(amount)
		case *obs.Gauge:
			h.Add(amount)
		case *obs.Histogram:
			h.Observe(amount)
			amount += 1000
		case *obs.CounterVec:
			series(h).Add(amount)
		}
		if got := read(sv.Field(i).Interface()); got != 0 {
			t.Errorf("%s: registered handle reads %v before any drain", name, got)
		}
		drain()
		if got := read(sv.Field(i).Interface()); got != amount {
			t.Errorf("%s: registered handle reads %v after the drain, want %v", name, got, amount)
		}
		if got := read(lv.Field(i).Interface()); got != 0 {
			t.Errorf("%s: local handle still reads %v after the drain", name, got)
		}
	}
}

// series returns one series of v. With panics unless it is given as
// many values as the family has label names, which a handle does not
// reveal, so the count is found by trying.
func series(v *obs.CounterVec) (c *obs.Counter) {
	for n := 0; c == nil && n <= 4; n++ {
		func() {
			defer func() { _ = recover() }()
			c = v.With(make([]string, n)...)
		}()
	}
	return c
}
