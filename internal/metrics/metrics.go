// Package metrics is a small, dependency-free metrics registry exposing the
// Prometheus text exposition format (version 0.0.4). It provides exactly the
// instrument set qisimd's observability needs — counters, gauges (including
// callback gauges for sampling live state like queue depth), and cumulative
// histograms, each optionally labelled — without pulling the Prometheus
// client library into the module.
//
// Concurrency: every instrument is safe for concurrent use. Counters and
// gauges are lock-free (atomic float64 bit-casts); histograms and labelled
// families take a small mutex. WritePrometheus renders a consistent snapshot
// under the registry lock with families and label series in sorted order, so
// scrapes are deterministic and diffable in tests.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in Prometheus
// text format. The zero value is not usable; call New.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help, typ string
	// fixed-label instruments (vecs) and the single unlabelled instrument
	// share one series map keyed by rendered label signature ("" for none).
	mu     sync.Mutex
	series map[string]renderer
}

// renderer emits one label-series' sample lines.
type renderer interface {
	render(w io.Writer, name, labels string)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, series: map[string]renderer{}}
	r.fams[name] = f
	return f
}

func (f *family) add(labels string, rd renderer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[labels]; ok {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", f.name, labels))
	}
	f.series[labels] = rd
}

// value is a lock-free float64 cell shared by Counter and Gauge.
type value struct{ bits atomic.Uint64 }

func (v *value) load() float64 { return math.Float64frombits(v.bits.Load()) }
func (v *value) store(x float64) {
	v.bits.Store(math.Float64bits(x))
}
func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (v *value) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(v.load()))
}

// Counter is a monotonically increasing metric.
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d, which must be >= 0 (negative deltas are dropped to preserve
// counter monotonicity).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.v.add(d)
}

func (c *Counter) render(w io.Writer, name, labels string) { c.v.render(w, name, labels) }

// Gauge is a metric that can go up and down.
type Gauge struct{ v value }

// Set replaces the gauge value.
func (g *Gauge) Set(x float64) { g.v.store(x) }

func (g *Gauge) render(w io.Writer, name, labels string) { g.v.render(w, name, labels) }

// funcRenderer samples a callback at scrape time.
type funcRenderer func() float64

func (f funcRenderer) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f()))
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter")
	c := &Counter{}
	f.add("", c)
	return c
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape time
// — the idiom for live state (queue depth, cache entries, goroutines).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "gauge")
	f.add("", funcRenderer(fn))
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time. fn must be monotonically non-decreasing (e.g. reading a stats
// struct's cumulative totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "counter")
	f.add("", funcRenderer(fn))
}

// funcVecRenderer samples a callback returning one value per label value at
// scrape time, emitting label series in sorted order.
type funcVecRenderer struct {
	label string
	fn    func() map[string]float64
}

func (g funcVecRenderer) render(w io.Writer, name, labels string) {
	vals := g.fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s %s\n", name, mergeLabels(labels, g.label, k), formatFloat(vals[k]))
	}
}

// GaugeFuncVec registers a gauge family with one dynamic label, sampled
// from fn at scrape time — fn returns the current value per label value,
// and keys absent from one scrape simply emit no series. The idiom for
// live breakdowns whose label values aren't known up front, like resident
// cache entries by job kind.
func (r *Registry) GaugeFuncVec(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, "gauge")
	f.add("", funcVecRenderer{label: label, fn: fn})
}

// CounterFuncVec registers a counter family with one dynamic label, sampled
// from fn at scrape time — the counter twin of GaugeFuncVec, for cumulative
// totals kept by another subsystem (e.g. the per-worker counts fleet
// workers report, whose label values only appear as workers register). fn must be monotonically
// non-decreasing per key.
func (r *Registry) CounterFuncVec(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, "counter")
	f.add("", funcVecRenderer{label: label, fn: fn})
}

// Sample is one label-value tuple with its value, returned wholesale by
// multi-label scrape-time callbacks. Values must match the label-name set
// the family was registered with.
type Sample struct {
	Values []string
	Value  float64
}

// sampleFuncRenderer emits a whole multi-label series set from one callback
// at scrape time, in sorted signature order.
type sampleFuncRenderer struct {
	labels []string
	fn     func() []Sample
}

func (s sampleFuncRenderer) render(w io.Writer, name, labels string) {
	samples := s.fn()
	lines := make([]string, 0, len(samples))
	for _, smp := range samples {
		lines = append(lines, fmt.Sprintf("%s%s %s\n",
			name, renderLabels(s.labels, smp.Values), formatFloat(smp.Value)))
	}
	sort.Strings(lines)
	for _, ln := range lines {
		io.WriteString(w, ln)
	}
}

// CounterFuncN registers a counter family over a fixed multi-label set whose
// series are produced wholesale by fn at scrape time. Used where the series
// population is owned elsewhere (e.g. chaos injector stats keyed by side and
// fault).
func (r *Registry) CounterFuncN(name, help string, labels []string, fn func() []Sample) {
	f := r.family(name, help, "counter")
	f.add("", sampleFuncRenderer{labels: labels, fn: fn})
}

// CounterVec is a family of counters partitioned by a fixed label set.
type CounterVec struct {
	f      *family
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter"), labels: labels, kids: map[string]*Counter{}}
}

// With returns the counter for the given label values (len must match the
// label names), creating it on first use.
func (cv *CounterVec) With(values ...string) *Counter {
	sig := renderLabels(cv.labels, values)
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if c, ok := cv.kids[sig]; ok {
		return c
	}
	c := &Counter{}
	cv.kids[sig] = c
	cv.f.add(sig, c)
	return c
}

// GaugeVec is a family of gauges partitioned by a fixed label set.
type GaugeVec struct {
	f      *family
	labels []string
	mu     sync.Mutex
	kids   map[string]*Gauge
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, "gauge"), labels: labels, kids: map[string]*Gauge{}}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (gv *GaugeVec) With(values ...string) *Gauge {
	sig := renderLabels(gv.labels, values)
	gv.mu.Lock()
	defer gv.mu.Unlock()
	if g, ok := gv.kids[sig]; ok {
		return g
	}
	g := &Gauge{}
	gv.kids[sig] = g
	gv.f.add(sig, g)
	return g
}

// Histogram is a cumulative histogram with fixed upper-bound buckets (+Inf
// is implicit).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	buckets []uint64
	sum     float64
	count   uint64
}

// NewHistogram returns a histogram no registry renders: its owner reads it
// with Summary. bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	if !sort.Float64sAreSorted(b) {
		panic("metrics: histogram bounds must be sorted ascending")
	}
	return &Histogram{bounds: b, buckets: make([]uint64, len(b))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.buckets[i]++
		}
	}
	h.sum += v
	h.count++
}

func (h *Histogram) render(w io.Writer, name, labels string) { h.Summary().render(w, name, labels) }

// Summary returns a point-in-time copy of the histogram.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSummary{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: append([]uint64(nil), h.buckets...),
		Sum:     h.sum,
		Count:   h.count,
	}
}

// HistogramSummary is a point-in-time copy of a cumulative histogram.
// Buckets are cumulative counts per corresponding Bounds entry (the +Inf
// bucket is Count).
type HistogramSummary struct {
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Sum     float64   `json:"sum"`
	Count   uint64    `json:"count"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) with the same linear
// interpolation Prometheus' histogram_quantile uses. Returns 0 for an empty
// histogram; observations past the last finite bound clamp to that bound.
func (s HistogramSummary) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, ub := range s.Bounds {
		var cum uint64
		if i < len(s.Buckets) {
			cum = s.Buckets[i]
		}
		if float64(cum) >= rank {
			lower, prev := 0.0, uint64(0)
			if i > 0 {
				lower = s.Bounds[i-1]
				prev = s.Buckets[i-1]
			}
			inBucket := cum - prev
			if inBucket == 0 {
				return ub
			}
			return lower + (ub-lower)*(rank-float64(prev))/float64(inBucket)
		}
	}
	// Rank falls in the +Inf bucket: clamp to the last finite bound.
	return s.Bounds[len(s.Bounds)-1]
}

// Merge adds o into s bucket-wise. Both must have the same bounds, with
// one bucket per bound; an empty receiver takes o's. Counts saturate
// instead of wrapping, so the merge of cumulative histograms stays
// cumulative.
func (s *HistogramSummary) Merge(o HistogramSummary) {
	if len(s.Bounds) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Buckets = make([]uint64, len(o.Buckets))
	}
	for i := range s.Buckets {
		s.Buckets[i] = addSat(s.Buckets[i], o.Buckets[i])
	}
	s.Sum += o.Sum
	s.Count = addSat(s.Count, o.Count)
}

// addSat returns a+b, or math.MaxUint64 where the sum would wrap.
func addSat(a, b uint64) uint64 {
	if a+b < a {
		return math.MaxUint64
	}
	return a + b
}

// histFuncRenderer renders a histogram whose state lives elsewhere, sampled
// as a HistogramSummary at scrape time.
type histFuncRenderer func() HistogramSummary

func (f histFuncRenderer) render(w io.Writer, name, labels string) {
	f().render(w, name, labels)
}

func (s HistogramSummary) render(w io.Writer, name, labels string) {
	for i, ub := range s.Bounds {
		var n uint64
		if i < len(s.Buckets) {
			n = s.Buckets[i]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", formatFloat(ub)), n)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// HistogramFunc registers a histogram sampled from fn at scrape time — for
// histograms owned elsewhere, like a fleet worker's unit seconds or their
// fleet-wide merge.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSummary) {
	r.family(name, help, "histogram").add("", histFuncRenderer(fn))
}

// HistogramVec is a family of histograms partitioned by a fixed label set,
// sharing one bucket layout.
type HistogramVec struct {
	f      *family
	labels []string
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{
		f: r.family(name, help, "histogram"), labels: labels,
		bounds: bounds, kids: map[string]*Histogram{},
	}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	sig := renderLabels(hv.labels, values)
	hv.mu.Lock()
	defer hv.mu.Unlock()
	if h, ok := hv.kids[sig]; ok {
		return h
	}
	h := NewHistogram(hv.bounds)
	hv.kids[sig] = h
	hv.f.add(sig, h)
	return h
}

// DefaultLatencyBuckets spans 1 ms to ~100 s in powers of ~3 — wide enough
// for both a cached lookup and a multi-minute sweep.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}
}

// WritePrometheus renders every family in the text exposition format, with
// families and series in sorted order (deterministic scrapes).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		for _, s := range sigs {
			f.series[s].render(&b, f.name, s)
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in text format — the
// body behind GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// renderLabels builds the canonical `{k="v",...}` signature. Label names
// keep their given order (callers use fixed label sets).
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("metrics: %d label values for %d names", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q yields exactly the Prometheus label escapes: \\ \" \n.
		fmt.Fprintf(&b, `%s=%q`, n, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends one extra label (the histogram `le`) to an existing
// signature.
func mergeLabels(labels, name, value string) string {
	extra := fmt.Sprintf(`%s=%q`, name, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value: integers without exponent, +Inf as
// Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
