package metrics

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzSummary feeds arbitrary bytes to the coordinator's side of metrics
// federation: a worker summary decoded from JSON, folded per family with
// CounterSum and HistogramMerge, read with Quantile and rendered in the
// exposition format, its series split with ParseSeries. Nothing may panic,
// and repeated folds of one summary must agree bit for bit, whatever the
// map order.
func FuzzSummary(f *testing.F) {
	f.Add([]byte(`{"counters":{"qisimd_worker_units_total":3,"qisimd_chaos_injected_total{side=\"client\",fault=\"drop\"}":2},` +
		`"gauges":{"qisimd_worker_busy":1},` +
		`"histograms":{"qisimd_worker_unit_seconds":{"bounds":[0.001,0.01,0.1],"buckets":[1,4,9],"sum":0.42,"count":10}}}`))
	f.Add([]byte(`{"counters":{"c{w=\"a\"}":0.1,"c{w=\"b\"}":0.2,"c{w=\"c\"}":0.3},` +
		`"histograms":{"h{w=\"a\"}":{"bounds":[1,2],"buckets":[1,1],"sum":0.1,"count":1},` +
		`"h{w=\"b\"}":{"bounds":[1,2],"buckets":[0,1],"sum":0.2,"count":1},` +
		`"h{w=\"c\"}":{"bounds":[1,3],"buckets":[1,1],"sum":0.3,"count":1},` +
		`"h":{"bounds":[1],"sum":1e308,"count":2}}}`))
	f.Add([]byte(`{"histograms":{"h{":{"bounds":[2,1],"buckets":[9],"sum":-1,"count":3},"h{k=\"v\\\"\"}":{"count":1}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"counters":{"x":1e308,"x{a=\"b\"}":1e308}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Summary
		if json.Unmarshal(data, &s) != nil {
			return
		}
		families := map[string]bool{}
		for _, m := range []map[string]float64{s.Counters, s.Gauges} {
			for k := range m {
				families[seriesFamily(k)] = true
			}
		}
		for k := range s.Histograms {
			families[seriesFamily(k)] = true
		}
		var b strings.Builder
		for name := range families {
			sum := s.CounterSum(name)
			merged := s.HistogramMerge(name)
			for i := 0; i < 8; i++ {
				if again := s.CounterSum(name); math.Float64bits(again) != math.Float64bits(sum) {
					t.Fatalf("CounterSum(%q) = %v, then %v", name, sum, again)
				}
				if again := s.HistogramMerge(name); !sameHistogram(again, merged) {
					t.Fatalf("HistogramMerge(%q) = %+v, then %+v", name, merged, again)
				}
			}
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				merged.Quantile(q)
			}
			merged.render(&b, "fuzz_merged", renderLabels([]string{"family"}, []string{name}))
		}
		for k, h := range s.Histograms {
			name, _, err := ParseSeries(k)
			if err == nil && strings.HasPrefix(k, name+"{") {
				h.render(&b, name, k[len(name):])
			}
			h.Quantile(0.5)
		}
		for k := range s.Counters {
			_, _, _ = ParseSeries(k)
		}
	})
}

// seriesFamily returns the family name of a series key: the text before its
// labels.
func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sameHistogram reports whether a and b hold bitwise-equal summaries.
func sameHistogram(a, b HistogramSummary) bool {
	bits := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return slices.Equal(bits(a.Bounds), bits(b.Bounds)) && slices.Equal(a.Buckets, b.Buckets) &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count
}
