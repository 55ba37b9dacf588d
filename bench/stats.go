package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qisim/internal/obs"
)

// minTail is the fewest samples a reported tail percentile must leave beyond
// it; with fewer, the percentile is a handful of outliers, not a tail.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// percentile that leaves fewer than minTail samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", p, n, beyond, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns the first and third quartile of xs with the same
// arithmetic as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so a spread reads the same as one computed in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its children cover. Overlapping children
// (parallel shards) count once, and a child sticking out of its parent counts
// only inside the parent.
func selfTimes(spans []obs.SpanData) map[uint64]int64 {
	type iv struct{ s, e int64 }
	children := map[uint64][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.StartNS, sp.EndNS})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, sp := range spans {
		cs := children[sp.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].s < cs[j].s })
		covered, reach := int64(0), sp.StartNS
		for _, c := range cs {
			s, e := max(c.s, reach), min(c.e, sp.EndNS)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[sp.ID] = sp.DurNS() - covered
	}
	return self
}
