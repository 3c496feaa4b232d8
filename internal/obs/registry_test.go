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
	h := NewRegistry().Histogram("overflow_seconds", "", []float64{1, 2})
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
