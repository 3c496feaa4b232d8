package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "concurrent counter")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "")
	c.Add(3)
	c.Add(-5)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3 (negative add ignored)", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *CounterVec
	var l *EventLog
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Dec()
	h.Observe(0.5)
	l.Emit(sampleTime(), "x", nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || v.With("a") != nil {
		t.Error("nil metrics must read as zero")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %v, want 8", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []float64
		observe []float64
		// want are the per-bucket (non-cumulative) counts including
		// the +Inf overflow bucket.
		want  []uint64
		sum   float64
		count uint64
	}{
		{
			name:    "value on bound lands in that bucket (le is inclusive)",
			bounds:  []float64{1, 2, 4},
			observe: []float64{1, 2, 4},
			want:    []uint64{1, 1, 1, 0},
			sum:     7, count: 3,
		},
		{
			name:    "below first and above last",
			bounds:  []float64{1, 2},
			observe: []float64{0.5, 3, 100},
			want:    []uint64{1, 0, 2},
			sum:     103.5, count: 3,
		},
		{
			name:    "just above a bound spills to the next",
			bounds:  []float64{1, 2},
			observe: []float64{1.0000001},
			want:    []uint64{0, 1, 0},
			sum:     1.0000001, count: 1,
		},
		{
			name:    "empty histogram",
			bounds:  []float64{1},
			observe: nil,
			want:    []uint64{0, 0},
			count:   0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h_seconds", "", tt.bounds)
			for _, v := range tt.observe {
				h.Observe(v)
			}
			for i := range tt.want {
				if got := h.counts[i].Load(); got != tt.want[i] {
					t.Errorf("bucket %d = %d, want %d", i, got, tt.want[i])
				}
			}
			if h.Count() != tt.count {
				t.Errorf("count = %d, want %d", h.Count(), tt.count)
			}
			if math.Abs(h.Sum()-tt.sum) > 1e-9 {
				t.Errorf("sum = %v, want %v", h.Sum(), tt.sum)
			}
		})
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{1, 2, 4, 8})
	// 100 observations uniformly in (0,1]: p50 ≈ 0.5 by interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(0.9)
	}
	if p50 := h.Quantile(0.5); p50 < 0.4 || p50 > 0.6 {
		t.Errorf("p50 = %v, want ≈0.5 (interpolated inside [0,1])", p50)
	}
	// Everything beyond the last bound clamps to it.
	h2 := r.Histogram("q2_seconds", "", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
}

// TestQuantileEdgeCases pins QuantileFromBuckets (and through it
// Histogram.Quantile) on the degenerate inputs that used to slip
// through: out-of-range and NaN q, zero counts, malformed shapes, and
// mass or bounds involving +Inf.
func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4}
	uniform := []uint64{10, 20, 30, 30} // all mass in finite buckets

	tests := []struct {
		name   string
		bounds []float64
		cum    []uint64
		q      float64
		want   float64
	}{
		{"q below zero clamps", bounds, uniform, -0.5, 0},
		{"q above one clamps", bounds, uniform, 1.5, 4},
		{"q zero", bounds, uniform, 0, 0},
		{"q one", bounds, uniform, 1, 4},
		{"zero count", bounds, []uint64{0, 0, 0, 0}, 0.5, 0},
		{"nil bounds", nil, []uint64{5}, 0.5, 0},
		{"shape mismatch", bounds, []uint64{1, 2}, 0.5, 0},
		{"all mass in +Inf clamps to top bound", bounds, []uint64{0, 0, 0, 9}, 0.5, 4},
		{"explicit +Inf bound clamps", []float64{1, math.Inf(1)}, []uint64{0, 7, 7}, 0.5, 1},
		{"only +Inf bound", []float64{math.Inf(1)}, []uint64{0, 3}, 0.5, 0},
		{"median interpolates", bounds, uniform, 0.5, 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := QuantileFromBuckets(tt.bounds, tt.cum, tt.q)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("QuantileFromBuckets = %v, want finite %v", got, tt.want)
			}
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("QuantileFromBuckets = %v, want %v", got, tt.want)
			}
		})
	}

	if got := QuantileFromBuckets(bounds, uniform, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN q = %v, want NaN", got)
	}

	// Histogram.Quantile goes through the same path: all mass beyond
	// the last bound must clamp, never interpolate toward +Inf, and
	// out-of-range q must not panic or go non-finite.
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("Histogram.Quantile(%v) = %v, want finite", q, got)
		}
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow mass quantile = %v, want clamp to 2", got)
	}
}

func TestTextFormatEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "help with \\ and\nnewline", "path").
		With("a\"b\\c\nd").Add(2)
	out := r.Render()
	wantHelp := `# HELP esc_total help with \\ and\nnewline`
	wantSeries := `esc_total{path="a\"b\\c\nd"} 2`
	if !strings.Contains(out, wantHelp) {
		t.Errorf("help line missing/unescaped:\n%s", out)
	}
	if !strings.Contains(out, wantSeries) {
		t.Errorf("series line missing/unescaped, want %s in:\n%s", wantSeries, out)
	}
}

func TestTextFormatHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	out := r.Render()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTextFormatSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last").Inc()
	r.Gauge("aaa", "first").Set(1)
	out := r.Render()
	if strings.Index(out, "aaa") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE aaa gauge") || !strings.Contains(out, "# TYPE zzz_total counter") {
		t.Errorf("TYPE lines wrong:\n%s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("fn_gauge", "computed", func() float64 { n++; return n })
	if !strings.Contains(r.Render(), "fn_gauge 42") {
		t.Errorf("gauge func not rendered: %s", r.Render())
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "x")
	b := r.Counter("same_total", "x")
	if a != b {
		t.Error("same name+type must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("shared series diverged")
	}
	h1 := r.Histogram("same_hist", "", []float64{1, 2})
	h2 := r.Histogram("same_hist", "", []float64{1, 2})
	if h1 != h2 {
		t.Error("same histogram must be shared")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("type conflict must panic")
		}
	}()
	r.Gauge("dup", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name must panic")
		}
	}()
	r.Counter("bad name!", "")
}

func TestVecLabelCardinality(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vec_total", "", "action")
	v.With("cap").Inc()
	v.With("cap").Inc()
	v.With("report").Inc()
	if v.With("cap").Value() != 2 || v.With("report").Value() != 1 {
		t.Error("labelled series not independent")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong label count must panic")
		}
	}()
	v.With("a", "b")
}

func TestCounterDrain(t *testing.T) {
	r := NewRegistry()
	shared := r.Counter("drain_total", "")
	local := &Counter{}
	local.Add(5)
	local.Drain(shared)
	if got := shared.Value(); got != 5 {
		t.Errorf("shared = %v, want 5", got)
	}
	if got := local.Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
	local.Drain(shared) // empty drain is a no-op
	if got := shared.Value(); got != 5 {
		t.Errorf("shared after empty drain = %v, want 5", got)
	}
	var nilC *Counter
	nilC.Drain(shared) // nil local
	local.Drain(nil)   // nil destination
}

func TestGaugeDrainMovesDelta(t *testing.T) {
	r := NewRegistry()
	shared := r.Gauge("drain_gauge", "")
	shared.Set(10)
	local := &Gauge{}
	local.Inc()
	local.Inc()
	local.Dec()
	local.Drain(shared)
	if got := shared.Value(); got != 11 {
		t.Errorf("shared = %v, want 11", got)
	}
	local.Add(-3)
	local.Drain(shared) // negative deltas move too
	if got := shared.Value(); got != 8 {
		t.Errorf("shared after negative drain = %v, want 8", got)
	}
	if got := local.Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
}

func TestHistogramDrain(t *testing.T) {
	r := NewRegistry()
	shared := r.Histogram("drain_seconds", "", []float64{1, 10})
	local := NewHistogram([]float64{1, 10})
	local.Observe(0.5)
	local.Observe(5)
	local.Observe(100)
	local.Drain(shared)
	if got := shared.Count(); got != 3 {
		t.Errorf("shared count = %d, want 3", got)
	}
	if got := shared.Sum(); got != 105.5 {
		t.Errorf("shared sum = %v, want 105.5", got)
	}
	if got := local.Count(); got != 0 {
		t.Errorf("local count after drain = %d, want 0", got)
	}
	if got := local.Sum(); got != 0 {
		t.Errorf("local sum after drain = %v, want 0", got)
	}
	// Draining repeatedly accumulates.
	local.Observe(2)
	local.Drain(shared)
	if got := shared.Count(); got != 4 {
		t.Errorf("shared count after second drain = %d, want 4", got)
	}
}

func TestHistogramDrainBucketMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bucket-layout mismatch")
		}
	}()
	a := NewHistogram([]float64{1})
	a.Observe(0.5)
	b := NewHistogram([]float64{1, 2})
	a.Drain(b)
}

func TestCounterVecDrain(t *testing.T) {
	r := NewRegistry()
	shared := r.CounterVec("drain_vec_total", "", "action")
	local := NewCounterVec("action")
	local.With("cap").Add(3)
	local.With("none").Add(7)
	local.Drain(shared)
	if got := shared.With("cap").Value(); got != 3 {
		t.Errorf(`shared{action="cap"} = %v, want 3`, got)
	}
	if got := shared.With("none").Value(); got != 7 {
		t.Errorf(`shared{action="none"} = %v, want 7`, got)
	}
	if got := local.With("cap").Value(); got != 0 {
		t.Errorf("local after drain = %v, want 0", got)
	}
	var nilV *CounterVec
	nilV.Drain(shared)
	local.Drain(nil)
}

// TestDrainUnderConcurrentWriters is the usage pattern the cluster
// relies on: local cells written from worker goroutines, drained serially,
// with no update lost.
func TestDrainUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	shared := r.Counter("drain_conc_total", "")
	const writers, per = 8, 1000
	locals := make([]*Counter, writers)
	var wg sync.WaitGroup
	for i := range locals {
		locals[i] = &Counter{}
		wg.Add(1)
		go func(c *Counter) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}(locals[i])
	}
	wg.Wait()
	for _, c := range locals {
		c.Drain(shared)
	}
	if got := shared.Value(); got != writers*per {
		t.Errorf("shared = %v, want %d", got, writers*per)
	}
}

// TestHistogramVecQuantileAll: the merged quantile must behave as if
// every series' observations had landed in one histogram, regardless
// of how they split across label values.
func TestHistogramVecQuantileAll(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	vec := NewHistogramVec(bounds, "job")
	merged := NewHistogram(bounds)
	obsv := []struct {
		job string
		v   float64
	}{
		{"a", 0.5}, {"a", 1.5}, {"a", 1.6}, {"b", 3}, {"b", 3.5},
		{"b", 7}, {"c", 7.5}, {"c", 100}, // +Inf bucket
	}
	for _, o := range obsv {
		vec.With(o.job).Observe(o.v)
		merged.Observe(o.v)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		if got, want := vec.QuantileAll(q), merged.Quantile(q); got != want {
			t.Errorf("QuantileAll(%v) = %v, want %v (single-histogram estimate)", q, got, want)
		}
	}
	var nilVec *HistogramVec
	if got := nilVec.QuantileAll(0.5); got != 0 {
		t.Errorf("nil QuantileAll = %v, want 0", got)
	}
	if got := NewHistogramVec(bounds, "job").QuantileAll(0.95); got != 0 {
		t.Errorf("empty QuantileAll = %v, want 0", got)
	}
	// Registered vecs (shared bucket layout enforced by the registry)
	// take the same path.
	r := NewRegistry()
	rv := r.HistogramVec("quantile_all_seconds", "", bounds, "job")
	rv.With("x").Observe(3)
	rv.With("y").Observe(3)
	if got := rv.QuantileAll(1); got != 4 {
		t.Errorf("registered QuantileAll(1) = %v, want 4 (upper bound of owning bucket)", got)
	}
}
