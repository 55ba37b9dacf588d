package metrics

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge")
	g := &Gauge{}
	f.add("", g)
	return g
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// TestWritePrometheusFormat pins the exposition format: HELP/TYPE headers,
// sorted families, sorted label series, integer rendering.
func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	c := r.Counter("zz_last_total", "renders last")
	c.Add(3)
	g := r.Gauge("aa_first", "renders first")
	g.Set(2.5)
	cv := r.CounterVec("jobs_total", "jobs by kind", "kind", "state")
	cv.With("surface.mc", "done").Inc()
	cv.With("pauli.mc", "failed").Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# HELP aa_first renders first",
		"# TYPE aa_first gauge",
		"aa_first 2.5",
		"# TYPE jobs_total counter",
		`jobs_total{kind="pauli.mc",state="failed"} 2`,
		`jobs_total{kind="surface.mc",state="done"} 1`,
		"# TYPE zz_last_total counter",
		"zz_last_total 3",
	}
	idx := -1
	for _, w := range want {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
		if i < idx {
			t.Fatalf("output line %q out of order:\n%s", w, out)
		}
		idx = i
	}
}

// TestHistogramCumulativeBuckets verifies the cumulative-bucket contract:
// each le bucket counts all samples at or below its bound, +Inf counts all.
func TestHistogramCumulativeBuckets(t *testing.T) {
	r := New()
	h := NewHistogram([]float64{0.1, 1, 10})
	r.HistogramFunc("lat_seconds", "latency", h.Summary)
	// Exact binary fractions so the rendered sum is reproducible.
	for _, v := range []float64{0.0625, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 55.5625",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("histogram output missing %q:\n%s", w, out)
		}
	}
}

// TestHistogramVecSharesBuckets: labelled histograms render per-series with
// the shared bucket layout and the le label merged into the signature.
func TestHistogramVecSharesBuckets(t *testing.T) {
	r := New()
	hv := r.HistogramVec("job_seconds", "job latency", []float64{1}, "kind")
	hv.With("sweep").Observe(0.5)
	hv.With("mc").Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`job_seconds_bucket{kind="mc",le="1"} 0`,
		`job_seconds_bucket{kind="mc",le="+Inf"} 1`,
		`job_seconds_bucket{kind="sweep",le="1"} 1`,
		`job_seconds_count{kind="sweep"} 1`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("histogram vec output missing %q:\n%s", w, out)
		}
	}
}

// TestConcurrentCounters hammers one counter and one counter vec from many
// goroutines; the totals must be exact (run under -race in the service CI
// job).
func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("hits_total", "")
	cv := r.CounterVec("by_kind_total", "", "kind")
	var wg sync.WaitGroup
	const workers, n = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.Inc()
				cv.With("k").Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*n {
		t.Errorf("counter = %v, want %d", got, workers*n)
	}
	if got := cv.With("k").Value(); got != workers*n {
		t.Errorf("counter vec = %v, want %d", got, workers*n)
	}
}

// TestGaugeFuncSampledAtScrape: callback gauges read live state at scrape
// time, and the HTTP handler sets the exposition content type.
func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := New()
	depth := 0
	r.GaugeFunc("queue_depth", "live queue depth", func() float64 { return float64(depth) })
	r.CounterFunc("evictions_total", "", func() float64 { return 7 })
	depth = 42

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "queue_depth 42") {
		t.Errorf("gauge func not sampled at scrape:\n%s", body)
	}
	if !strings.Contains(body, "evictions_total 7") {
		t.Errorf("counter func not sampled at scrape:\n%s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
}

// TestCounterIgnoresNegative preserves monotonicity.
func TestCounterIgnoresNegative(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
}

func TestGaugeFuncVec(t *testing.T) {
	r := New()
	r.GaugeFuncVec("cache_by_kind", "Entries per kind.", "kind", func() map[string]float64 {
		return map[string]float64{"surface.mc": 3, "dse.point": 12}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP cache_by_kind Entries per kind.\n" +
		"# TYPE cache_by_kind gauge\n" +
		`cache_by_kind{kind="dse.point"} 12` + "\n" +
		`cache_by_kind{kind="surface.mc"} 3` + "\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistogramSummaryQuantile(t *testing.T) {
	// 10 observations spread: 5 in (0,1], 4 in (1,2], 1 beyond 2.
	s := HistogramSummary{Bounds: []float64{1, 2}, Buckets: []uint64{5, 9}, Count: 10, Sum: 12}
	if q := s.Quantile(0.5); q != 1.0 {
		t.Fatalf("p50 = %v, want 1.0", q)
	}
	if q := s.Quantile(0.9); math.Abs(q-2.0) > 1e-9 {
		t.Fatalf("p90 = %v, want 2.0", q)
	}
	if q := s.Quantile(0.99); q != 2 { // +Inf bucket clamps to last bound
		t.Fatalf("p99 = %v, want 2", q)
	}
	if q := (HistogramSummary{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// TestHistogramSummaryMerge: merges add bucket-wise, the first copies its
// layout without sharing the merged slices, and counts saturate instead of
// wrapping, so the buckets stay cumulative.
func TestHistogramSummaryMerge(t *testing.T) {
	a := HistogramSummary{Bounds: []float64{1, 2}, Buckets: []uint64{1, 3}, Sum: 4, Count: 3}
	var s HistogramSummary
	s.Merge(a)
	s.Merge(HistogramSummary{Bounds: []float64{1, 2}, Buckets: []uint64{2, 2}, Sum: 8, Count: 5})
	want := HistogramSummary{Bounds: []float64{1, 2}, Buckets: []uint64{3, 5}, Sum: 12, Count: 8}
	if !reflect.DeepEqual(s, want) || a.Buckets[0] != 1 {
		t.Fatalf("merge = %+v (first input now %+v), want %+v", s, a, want)
	}
	s.Merge(HistogramSummary{Bounds: []float64{1, 2}, Buckets: []uint64{0, math.MaxUint64 - 1}, Count: math.MaxUint64})
	if s.Buckets[0] != 3 || s.Buckets[1] != math.MaxUint64 || s.Count != math.MaxUint64 {
		t.Fatalf("merge past 2^64 = %+v, want buckets [3 max] and count max", s)
	}
}

func TestGaugeVec(t *testing.T) {
	r := New()
	gv := r.GaugeVec("build_info", "build metadata", "version", "vcs")
	gv.With("v1.2", "abc").Set(1)
	if g := gv.With("v1.2", "abc"); g.Value() != 1 {
		t.Fatalf("same labels must return same gauge")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `build_info{version="v1.2",vcs="abc"} 1`) {
		t.Fatalf("render:\n%s", b.String())
	}
}

func TestCounterFuncNRendersSorted(t *testing.T) {
	r := New()
	r.CounterFuncN("inj_total", "injections", []string{"side", "fault"}, func() []Sample {
		return []Sample{
			{Values: []string{"server", "drop"}, Value: 2},
			{Values: []string{"client", "reset"}, Value: 1},
		}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ci := strings.Index(out, `inj_total{side="client",fault="reset"} 1`)
	si := strings.Index(out, `inj_total{side="server",fault="drop"} 2`)
	if ci < 0 || si < 0 || ci > si {
		t.Fatalf("series missing or unsorted:\n%s", out)
	}
}
