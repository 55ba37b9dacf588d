package metrics

import (
	"slices"
	"sort"
	"strings"
)

// This file is the federation half of the package: Summary snapshots a
// whole registry into a compact JSON-serialisable form that workers ship to
// the coordinator on lease renewals and unit reports, and the coordinator
// folds back into qisimd_fleet_* series. Keys are full series identities in
// exposition syntax — `name` or `name{label="value",...}` — so a summary
// round-trips losslessly into per-worker labelled series.

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

// Merge folds o into s. Layouts match only when their bounds are equal,
// and matching layouts add bucket-wise; mismatched layouts (or an empty
// receiver) degrade gracefully: Sum and Count still accumulate, and the
// receiver adopts o's layout when it has none.
func (s *HistogramSummary) Merge(o HistogramSummary) {
	if len(s.Bounds) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Buckets = append([]uint64(nil), o.Buckets...)
	} else if slices.Equal(s.Bounds, o.Bounds) {
		for i := range s.Buckets {
			if i < len(o.Buckets) {
				s.Buckets[i] += o.Buckets[i]
			}
		}
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Summary is a snapshot of every series in a registry, keyed by series
// identity (`name{labels}`). Callback instruments are sampled at snapshot
// time, so a worker's summary reflects live state the same way a scrape
// would.
type Summary struct {
	Counters   map[string]float64          `json:"counters,omitempty"`
	Gauges     map[string]float64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Summary snapshots the registry.
func (r *Registry) Summary() Summary {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	s := Summary{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSummary{},
	}
	for _, f := range fams {
		f.mu.Lock()
		for sig, rd := range f.series {
			key := f.name + sig
			switch v := rd.(type) {
			case *Counter:
				s.Counters[key] = v.Value()
			case *Gauge:
				s.Gauges[key] = v.Value()
			case *Histogram:
				s.Histograms[key] = v.Summary()
			case histFuncRenderer:
				s.Histograms[key] = v()
			case funcRenderer:
				if f.typ == "counter" {
					s.Counters[key] = v()
				} else {
					s.Gauges[key] = v()
				}
			case funcVecRenderer:
				for k, val := range v.fn() {
					s.scalar(f.typ)[f.name+mergeLabels(sig, v.label, k)] = val
				}
			case sampleFuncRenderer:
				for _, smp := range v.fn() {
					s.scalar(f.typ)[f.name+renderLabels(v.labels, smp.Values)] = smp.Value
				}
			}
		}
		f.mu.Unlock()
	}
	return s
}

func (s *Summary) scalar(typ string) map[string]float64 {
	if typ == "counter" {
		return s.Counters
	}
	return s.Gauges
}

// CounterSum sums every counter series of the named family (the exact
// unlabelled series plus all labelled ones), in sorted series order.
func (s *Summary) CounterSum(name string) float64 {
	if s == nil {
		return 0
	}
	var sum float64
	for _, k := range familySeries(s.Counters, name) {
		sum += s.Counters[k]
	}
	return sum
}

// HistogramMerge folds every histogram series of the named family into one,
// in sorted series order.
func (s *Summary) HistogramMerge(name string) HistogramSummary {
	var out HistogramSummary
	if s == nil {
		return out
	}
	for _, k := range familySeries(s.Histograms, name) {
		out.Merge(s.Histograms[k])
	}
	return out
}

// familySeries returns the sorted series of m in the named family. A fold
// over them does not depend on map order: float addition is not
// associative, and the first series sets the merged bucket layout.
func familySeries[V any](m map[string]V, name string) []string {
	var keys []string
	for k := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
