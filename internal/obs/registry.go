// Package obs is the repository's observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) rendered in the Prometheus text exposition format, a
// structured JSON event log for incidents and enforcement actions (the
// paper's Dremel-style forensics stream), and an admin HTTP server
// exposing both. It is stdlib-only by design — the repo carries no
// dependencies — and every metric handle is nil-safe, so components
// can be instrumented unconditionally and run un-instrumented for
// free.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// atomicFloat is a lock-free float64 cell (bits in a uint64).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// swap atomically replaces the value with v and returns the old value.
func (f *atomicFloat) swap(v float64) float64 {
	return math.Float64frombits(f.bits.Swap(math.Float64bits(v)))
}

// markWritten sets a staged copy's written flag (see Stage); w is nil
// on a registered handle. The flag is loaded first so that a copy
// written many times between drains stores to it once.
func markWritten(w *atomic.Bool) {
	if w != nil && !w.Load() {
		w.Store(true)
	}
}

// Counter is a monotonically increasing metric. All methods are safe
// on a nil receiver (no-ops), so optional instrumentation costs one
// nil check.
type Counter struct {
	v atomicFloat
	w *atomic.Bool // written flag of the staged copy this belongs to
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.v.Add(v)
	markWritten(c.w)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct {
	v atomicFloat
	w *atomic.Bool // as Counter.w
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Set(v)
	markWritten(g.w)
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
	markWritten(g.w)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram with Prometheus
// `le` semantics: bucket i counts observations ≤ bounds[i], plus an
// implicit +Inf bucket. Nil-safe like Counter.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Uint64
	w      *atomic.Bool // as Counter.w
}

// LatencyBuckets spans 1µs–10s, dense around the paper's ≈100µs
// correlation-analysis cost.
var LatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10,
}

// StalenessBuckets spans 1s–24h, for data-age SLIs like spec
// staleness and sample-to-spec latency: the healthy regime is one
// recompute interval, and the tail must resolve multi-hour blackouts.
var StalenessBuckets = []float64{
	1, 5, 15, 60, 300, 900, 1800, 3600,
	2 * 3600, 6 * 3600, 12 * 3600, 24 * 3600,
}

// ReactionBuckets spans 1s–1h, for end-to-end reaction-time SLIs
// (detection-to-cap): sub-minute when the loop is healthy, bounded by
// the CPI sampling/analysis cadence when it is not.
var ReactionBuckets = []float64{
	1, 2, 5, 10, 30, 60, 120, 300, 600, 1200, 1800, 3600,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v (le is inclusive)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	markWritten(h.w)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the owning bucket, the standard Prometheus
// histogram_quantile estimate. Observations in the +Inf bucket clamp
// to the highest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	cum := make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return QuantileFromBuckets(h.bounds, cum, q)
}

// QuantileFromBuckets computes the same estimate as Histogram.Quantile
// from raw cumulative bucket counts, as scraped from the text
// exposition format: bounds are the finite `le` bounds ascending, and
// cum the cumulative counts with one extra trailing entry for the +Inf
// bucket (so cum[len(bounds)] is the total). It lets CLI tools render
// quantiles from a /metrics scrape without access to the live
// Histogram. Returns 0 on empty or malformed input; q is clamped to
// [0, 1] and a NaN q yields NaN. Scraped input may carry an explicit
// +Inf bound — mass there clamps to the highest finite bound, never
// interpolates (Inf arithmetic would produce NaN).
func QuantileFromBuckets(bounds []float64, cum []uint64, q float64) float64 {
	if len(bounds) == 0 || len(cum) != len(bounds)+1 {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var prev uint64
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if math.IsInf(b, 1) {
				return lower
			}
			n := float64(cum[i] - prev)
			if n == 0 {
				return b
			}
			return lower + (b-lower)*((rank-float64(prev))/n)
		}
		prev = cum[i]
	}
	// Rank landed in the implicit +Inf bucket: clamp to the highest
	// finite bound.
	for i := len(bounds) - 1; i >= 0; i-- {
		if !math.IsInf(bounds[i], 1) {
			return bounds[i]
		}
	}
	return 0
}

// family is one registered metric name: its metadata plus every
// labelled series under it.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histogram only

	mu     sync.Mutex
	series map[string]any // encoded label values → *Counter/*Gauge/*Histogram
	fn     func() float64 // GaugeFunc only
	// nseries is len(series), readable without mu: a staged drain polls
	// it to learn that a labelled family grew (see Stage).
	nseries atomic.Int32
	// written is the staged copy's flag, given to every counter the
	// family creates; nil in a registered family.
	written *atomic.Bool
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: registering the same
// name with the same type and label set returns the existing metric,
// so independent components can share series just by using the same
// registry and names. Conflicting re-registration panics (programmer
// error, like prometheus.MustRegister).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]any),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or fetches) a counter family with labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", labels, nil)}
}

// Gauge registers (or fetches) an unlabelled gauge. (There is no
// labelled gauge: nothing needed one, and every handle kind the registry
// hands out is one Stage can copy.)
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return f.lookup(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time (e.g. a queue length read from its owner).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabelled histogram with the
// given bucket upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	f := r.register(name, help, "histogram", nil, b)
	return f.lookup(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// newHistogram returns an empty histogram over bounds, which it shares
// rather than copies: bucket layouts are never written after creation.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (created on
// first use). len(values) must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	s := v.fam.lookup(values, func() any { return &Counter{} })
	return s.(*Counter)
}

func (f *family) lookup(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := encodeLabels(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		if c, isCounter := s.(*Counter); isCounter {
			c.w = f.written
		}
		f.series[key] = s
		f.nseries.Add(1)
	}
	return s
}

// encodeLabels joins label values with an unprintable separator so the
// map key is unambiguous.
func encodeLabels(values []string) string { return strings.Join(values, "\x1f") }

// decodeLabels splits a series key back into its n label values.
func decodeLabels(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and
// series sorted by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	for _, f := range fams {
		f.write(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Render returns the text exposition as a string (test convenience).
func (r *Registry) Render() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}

func (f *family) write(sb *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	fn := f.fn
	f.mu.Unlock()
	sort.Strings(keys)

	if len(keys) == 0 && fn == nil {
		return // nothing to expose yet
	}
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.typ)
	if fn != nil {
		fmt.Fprintf(sb, "%s %s\n", f.name, formatValue(fn()))
		return
	}
	for _, key := range keys {
		f.mu.Lock()
		s := f.series[key]
		f.mu.Unlock()
		values := decodeLabels(key, len(f.labels))
		switch m := s.(type) {
		case *Counter:
			fmt.Fprintf(sb, "%s%s %s\n", f.name, labelString(f.labels, values, "", 0), formatValue(m.Value()))
		case *Gauge:
			fmt.Fprintf(sb, "%s%s %s\n", f.name, labelString(f.labels, values, "", 0), formatValue(m.Value()))
		case *Histogram:
			var cum uint64
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", b), cum)
			}
			cum += m.counts[len(m.bounds)].Load()
			fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, values, "le", math.Inf(1)), cum)
			fmt.Fprintf(sb, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", 0), formatValue(m.Sum()))
			fmt.Fprintf(sb, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", 0), m.Count())
		}
	}
}

// labelString renders {k="v",…}; an extra le label is appended for
// histogram buckets. Returns "" with no labels at all.
func labelString(names, values []string, extraName string, extraVal float64) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(formatValue(extraVal))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double-quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the way Prometheus clients expect:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
