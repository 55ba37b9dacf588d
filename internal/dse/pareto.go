package dse

import (
	"math"
	"sort"

	"qisim/internal/simerr"
)

// Goal orients one objective: maximise or minimise its metric.
type Goal string

const (
	Max Goal = "max"
	Min Goal = "min"
)

// Objective names one metric of the multi-objective comparison.
type Objective struct {
	Metric string `json:"metric"`
	Goal   Goal   `json:"goal"`
}

// CheckObjectives validates an objective list: at least one, no duplicate
// metrics, goals restricted to max|min.
func CheckObjectives(objs []Objective) error {
	if len(objs) == 0 {
		return simerr.Invalidf("dse: need at least one objective")
	}
	seen := map[string]bool{}
	for _, o := range objs {
		if o.Metric == "" {
			return simerr.Invalidf("dse: objective needs a metric name")
		}
		if seen[o.Metric] {
			return simerr.Invalidf("dse: duplicate objective metric %q", o.Metric)
		}
		seen[o.Metric] = true
		if o.Goal != Max && o.Goal != Min {
			return simerr.Invalidf("dse: objective %q goal must be \"max\" or \"min\", got %q", o.Metric, o.Goal)
		}
	}
	return nil
}

// better reports whether value a improves on b under the goal (strictly).
func (o Objective) better(a, b float64) bool {
	if o.Goal == Max {
		return a > b
	}
	return a < b
}

// Candidate is one evaluated design point entering the frontier fold.
// Metrics holds every objective metric (and may carry extras, ignored by
// dominance). Params is the point's canonical coordinate JSON.
type Candidate struct {
	Index   int                `json:"index"`
	Params  map[string]any     `json:"params"`
	Metrics map[string]float64 `json:"metrics"`
}

// Dominates reports whether a Pareto-dominates b under objs: a is at least
// as good on every objective and strictly better on at least one. Metrics
// missing from a map count as the worst possible value for that goal.
func Dominates(objs []Objective, a, b map[string]float64) bool {
	strict := false
	for _, o := range objs {
		av, bv := metric(o, a), metric(o, b)
		if o.better(bv, av) {
			return false
		}
		if o.better(av, bv) {
			strict = true
		}
	}
	return strict
}

// StrictlyDominates reports whether a is strictly better than b on EVERY
// objective. This is the pruning predicate: if a frontier member strictly
// dominates a point's optimistic bound, the point's true metrics (each no
// better than the bound) are strictly dominated too, so the point can never
// join the frontier — pruning it provably cannot change the final frontier.
func StrictlyDominates(objs []Objective, a, b map[string]float64) bool {
	for _, o := range objs {
		if !o.better(metric(o, a), metric(o, b)) {
			return false
		}
	}
	return true
}

func metric(o Objective, m map[string]float64) float64 {
	v, ok := m[o.Metric]
	if !ok {
		// Missing metric: worst value for the goal, so the point never
		// spuriously dominates anything on data it does not have.
		if o.Goal == Max {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	return v
}

// Frontier incrementally maintains the Pareto-optimal subset of the
// candidates folded into it. The surviving set is the set of non-dominated
// points, which is independent of fold order; points equal on every
// objective are all kept. Members are stored sorted by grid index so
// snapshots serialise deterministically.
type Frontier struct {
	objs []Objective
	pts  []Candidate
}

// NewFrontier builds an empty frontier over the given objectives.
func NewFrontier(objs []Objective) *Frontier {
	return &Frontier{objs: append([]Objective(nil), objs...)}
}

// Add folds one candidate: dominated members are evicted, and c joins
// unless some member dominates it. Returns whether c survived.
func (f *Frontier) Add(c Candidate) bool {
	keep := f.pts[:0]
	for _, p := range f.pts {
		if Dominates(f.objs, p.Metrics, c.Metrics) {
			// c is dominated: no existing member can be dominated by c
			// (dominance is transitive), so the frontier is unchanged.
			return false
		}
		if !Dominates(f.objs, c.Metrics, p.Metrics) {
			keep = append(keep, p)
		}
	}
	f.pts = append(keep, c)
	sort.Slice(f.pts, func(i, j int) bool { return f.pts[i].Index < f.pts[j].Index })
	return true
}

// PruneBound reports whether a point with the given optimistic bound can be
// skipped: true iff some frontier member strictly dominates the bound on
// every objective (see StrictlyDominates for why that is frontier-safe).
func (f *Frontier) PruneBound(bound map[string]float64) bool {
	for _, p := range f.pts {
		if StrictlyDominates(f.objs, p.Metrics, bound) {
			return true
		}
	}
	return false
}

// Snapshot is a serialisable frontier state: objectives plus the members
// sorted by grid index.
type Snapshot struct {
	Objectives []Objective `json:"objectives"`
	Points     []Candidate `json:"points"`
}

// Snapshot copies the current frontier (members in index order).
func (f *Frontier) Snapshot() Snapshot {
	out := Snapshot{Objectives: append([]Objective(nil), f.objs...)}
	out.Points = append([]Candidate(nil), f.pts...)
	return out
}
