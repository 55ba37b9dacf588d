package metrics

import (
	"net/http/httptest"
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
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
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
