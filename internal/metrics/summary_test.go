package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// ParseSeries splits a series identity into its family name and label map,
// the oracle FuzzSummary checks Summary's series names with. It accepts
// exactly what renderLabels/mergeLabels produce (Go %q escaping,
// which is a superset of the Prometheus label escapes).
func ParseSeries(series string) (name string, labels map[string]string, err error) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, nil, nil
	}
	if !strings.HasSuffix(series, "}") {
		return "", nil, fmt.Errorf("metrics: malformed series %q", series)
	}
	name = series[:i]
	labels = map[string]string{}
	rest := series[i+1 : len(series)-1]
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", nil, fmt.Errorf("metrics: malformed labels in %q", series)
		}
		key := rest[:eq]
		// Scan the quoted value honouring backslash escapes.
		j := eq + 2
		for j < len(rest) && rest[j] != '"' {
			if rest[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(rest) {
			return "", nil, fmt.Errorf("metrics: unterminated label value in %q", series)
		}
		val, uerr := strconv.Unquote(rest[eq+1 : j+1])
		if uerr != nil {
			return "", nil, fmt.Errorf("metrics: bad label value in %q: %v", series, uerr)
		}
		labels[key] = val
		rest = rest[j+1:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return name, labels, nil
}

func TestSummarySnapshotsEveryInstrumentKind(t *testing.T) {
	r := New()
	r.Counter("c_total", "plain counter").Add(3)
	r.Gauge("g", "plain gauge").Set(7)
	r.CounterVec("cv_total", "labelled counter", "kind").With("mc").Add(2)
	r.GaugeFunc("gf", "callback gauge", func() float64 { return 11 })
	r.CounterFunc("cf_total", "callback counter", func() float64 { return 13 })
	r.GaugeFuncVec("gfv", "callback gauge vec", "k", func() map[string]float64 {
		return map[string]float64{"a": 1, "b": 2}
	})
	r.CounterFuncVec("cfv_total", "callback counter vec", "k", func() map[string]float64 {
		return map[string]float64{"x": 5}
	})
	r.CounterFuncN("cfn_total", "multi-label callback counter", []string{"side", "fault"},
		func() []Sample { return []Sample{{Values: []string{"server", "drop"}, Value: 4}} })
	h := r.Histogram("h_seconds", "histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	r.HistogramFunc("hf_seconds", "callback histogram", func() HistogramSummary {
		return HistogramSummary{Bounds: []float64{1}, Buckets: []uint64{1}, Sum: 0.25, Count: 1}
	})

	s := r.Summary()
	wantCounters := map[string]float64{
		"c_total":                               3,
		`cv_total{kind="mc"}`:                   2,
		"cf_total":                              13,
		`cfv_total{k="x"}`:                      5,
		`cfn_total{side="server",fault="drop"}`: 4,
	}
	for k, want := range wantCounters {
		if got := s.Counters[k]; got != want {
			t.Errorf("Counters[%s] = %v, want %v (have %v)", k, got, want, s.Counters)
		}
	}
	if s.Gauges["g"] != 7 || s.Gauges["gf"] != 11 {
		t.Errorf("gauges: %v", s.Gauges)
	}
	if s.Gauges[`gfv{k="a"}`] != 1 || s.Gauges[`gfv{k="b"}`] != 2 {
		t.Errorf("gauge func vec: %v", s.Gauges)
	}
	hs := s.Histograms["h_seconds"]
	if hs.Count != 2 || hs.Sum != 2 || hs.Buckets[0] != 1 || hs.Buckets[1] != 2 {
		t.Errorf("histogram summary: %+v", hs)
	}
	if s.Histograms["hf_seconds"].Count != 1 {
		t.Errorf("histogram func summary: %+v", s.Histograms["hf_seconds"])
	}

	// Must round-trip through JSON (the federation wire format).
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["c_total"] != 3 || back.Histograms["h_seconds"].Count != 2 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestSummaryCounterSumAndHistogramMerge(t *testing.T) {
	s := &Summary{
		Counters: map[string]float64{
			"x_total":            1,
			`x_total{k="a"}`:     2,
			`x_total_sub{k="a"}`: 100, // different family, must not match
		},
		Histograms: map[string]HistogramSummary{
			`h{w="1"}`: {Bounds: []float64{1, 2}, Buckets: []uint64{1, 2}, Sum: 1, Count: 2},
			`h{w="2"}`: {Bounds: []float64{1, 2}, Buckets: []uint64{0, 1}, Sum: 2, Count: 1},
		},
	}
	if got := s.CounterSum("x_total"); got != 3 {
		t.Fatalf("CounterSum = %v, want 3", got)
	}
	m := s.HistogramMerge("h")
	if m.Count != 3 || m.Sum != 3 || m.Buckets[0] != 1 || m.Buckets[1] != 3 {
		t.Fatalf("HistogramMerge = %+v", m)
	}
}

// TestSummaryFoldIsDeterministic pins the federated fold to sorted series
// order: summing 0.1, 0.2 and 0.3 gives 0.6000000000000001 in that order
// and 0.6 in others, so a fold in map order would vary from call to call.
// A layout of the same length but other bounds is not added bucket-wise.
func TestSummaryFoldIsDeterministic(t *testing.T) {
	s := &Summary{
		Counters: map[string]float64{`c{w="a"}`: 0.1, `c{w="b"}`: 0.2, `c{w="c"}`: 0.3},
		Histograms: map[string]HistogramSummary{
			`h{w="a"}`: {Bounds: []float64{1, 2}, Buckets: []uint64{1, 1}, Sum: 0.1, Count: 1},
			`h{w="b"}`: {Bounds: []float64{1, 2}, Buckets: []uint64{0, 1}, Sum: 0.2, Count: 1},
			`h{w="c"}`: {Bounds: []float64{1, 2}, Buckets: []uint64{1, 1}, Sum: 0.3, Count: 1},
			`h{w="d"}`: {Bounds: []float64{1, 3}, Buckets: []uint64{5, 5}, Sum: 0, Count: 5},
		},
	}
	for i := 0; i < 200; i++ {
		if got := s.CounterSum("c"); got != 0.6000000000000001 {
			t.Fatalf("call %d: CounterSum = %v, want 0.6000000000000001 (sorted order)", i, got)
		}
		m := s.HistogramMerge("h")
		if m.Sum != 0.6000000000000001 || m.Count != 8 || m.Buckets[0] != 2 || m.Buckets[1] != 3 {
			t.Fatalf("call %d: HistogramMerge = %+v, want sum 0.6000000000000001, count 8, buckets [2 3]", i, m)
		}
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

func TestParseSeries(t *testing.T) {
	name, labels, err := ParseSeries(`qisimd_chaos_injected_total{side="client",fault="a\"b"}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if name != "qisimd_chaos_injected_total" || labels["side"] != "client" || labels["fault"] != `a"b` {
		t.Fatalf("got %q %v", name, labels)
	}
	if n, l, err := ParseSeries("plain_total"); err != nil || n != "plain_total" || l != nil {
		t.Fatalf("plain: %q %v %v", n, l, err)
	}
	for _, bad := range []string{`x{`, `x{k}`, `x{k="v`, `x{k=v}`} {
		if _, _, err := ParseSeries(bad); err == nil {
			t.Errorf("ParseSeries(%q) should fail", bad)
		}
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

func TestREDMiddleware(t *testing.T) {
	r := New()
	red := NewRED(r)

	ok := red.Wrap("/v1/jobs/{id}", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	implicit := red.Wrap("/healthz", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	boom := red.Wrap("/v1/dist/claim", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/abc", nil))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	implicit.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate through RED")
			}
		}()
		boom.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/dist/claim", nil))
	}()

	s := r.Summary()
	if got := s.Counters[`qisimd_http_requests_total{route="/v1/jobs/{id}",method="GET",code="202"}`]; got != 3 {
		t.Fatalf("202 count = %v, want 3 (%v)", got, s.Counters)
	}
	if got := s.Counters[`qisimd_http_requests_total{route="/healthz",method="GET",code="200"}`]; got != 1 {
		t.Fatalf("implicit 200 count = %v, want 1", got)
	}
	if got := s.Counters[`qisimd_http_requests_total{route="/v1/dist/claim",method="POST",code="aborted"}`]; got != 1 {
		t.Fatalf("aborted count = %v, want 1", got)
	}
	if hs := s.Histograms[`qisimd_http_request_seconds{route="/v1/jobs/{id}"}`]; hs.Count != 3 {
		t.Fatalf("latency count = %d, want 3", hs.Count)
	}
	if hs := s.Histograms[`qisimd_http_request_seconds{route="/v1/dist/claim"}`]; hs.Count != 1 {
		t.Fatalf("aborted request must still record latency")
	}
}

func TestREDStatusWriterFlushAndUnwrap(t *testing.T) {
	r := New()
	red := NewRED(r)
	flushed := false
	h := red.Wrap("/v1/jobs/{id}/events", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
			flushed = true
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/j/events", nil))
	if !flushed {
		t.Fatal("statusWriter must satisfy http.Flusher for SSE")
	}
	if !rec.Flushed {
		t.Fatal("Flush must forward to the underlying writer")
	}
}
