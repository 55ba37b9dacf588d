// Package dse is the design-space exploration layer behind qisimd's
// dse.sweep jobs and the "dse" experiment: it expands multi-axis parameter
// grids into deterministic point sequences, folds evaluated points into
// Pareto frontiers, and drives wave-based sweeps whose pruning decisions
// depend only on a committed prefix of results — so the final frontier is
// byte-identical regardless of how the points were scheduled, which tenants
// interleaved, or whether the service crashed and recovered mid-sweep (see
// DESIGN.md "Design-space exploration").
package dse

import (
	"math"

	"qisim/internal/simerr"
)

// MaxAxisValues bounds a single axis expansion and MaxGridSize bounds the
// whole grid, so a typo'd step cannot OOM the service.
const (
	MaxAxisValues = 4096
	MaxGridSize   = 100_000
)

// Range generates the inclusive arithmetic progression from, from+step, …
// up to (and including, within rounding) to.
type Range struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// LogRange generates Points values multiplicatively spaced between From and
// To inclusive (both endpoints exact).
type LogRange struct {
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Points int     `json:"points"`
}

// Axis is one dimension of a design-space grid. Exactly one generator form
// must be set. Values entries are either strings (e.g. design names) or
// numbers; Range/LogRange always produce numbers.
type Axis struct {
	Name     string    `json:"name"`
	Values   []any     `json:"values,omitempty"`
	Range    *Range    `json:"range,omitempty"`
	LogRange *LogRange `json:"log_range,omitempty"`
}

// Expand materialises the axis values in their deterministic order.
func (a Axis) Expand() ([]any, error) {
	if a.Name == "" {
		return nil, simerr.Invalidf("dse: axis needs a name")
	}
	forms := 0
	if a.Values != nil {
		forms++
	}
	if a.Range != nil {
		forms++
	}
	if a.LogRange != nil {
		forms++
	}
	if forms != 1 {
		return nil, simerr.Invalidf("dse: axis %q must set exactly one of values, range, log_range", a.Name)
	}
	switch {
	case a.Values != nil:
		if len(a.Values) == 0 {
			return nil, simerr.Invalidf("dse: axis %q has an empty values list", a.Name)
		}
		if len(a.Values) > MaxAxisValues {
			return nil, simerr.Invalidf("dse: axis %q lists %d values (max %d)", a.Name, len(a.Values), MaxAxisValues)
		}
		out := make([]any, len(a.Values))
		for i, v := range a.Values {
			switch t := v.(type) {
			case string:
				out[i] = t
			case float64:
				if math.IsNaN(t) || math.IsInf(t, 0) {
					return nil, simerr.Invalidf("dse: axis %q value %d is not finite", a.Name, i)
				}
				out[i] = t
			case int:
				out[i] = float64(t)
			default:
				return nil, simerr.Invalidf("dse: axis %q value %d must be a string or number, got %T", a.Name, i, v)
			}
		}
		return out, nil
	case a.Range != nil:
		r := *a.Range
		if !finite(r.From) || !finite(r.To) || !finite(r.Step) {
			return nil, simerr.Invalidf("dse: axis %q range bounds must be finite", a.Name)
		}
		if r.Step <= 0 {
			return nil, simerr.Invalidf("dse: axis %q range step must be positive, got %v", a.Name, r.Step)
		}
		if r.To < r.From {
			return nil, simerr.Invalidf("dse: axis %q range has to < from", a.Name)
		}
		// Count first, then generate by index: from + i*step accumulates no
		// rounding drift, so the sequence is reproducible bit-for-bit.
		n := int(math.Floor((r.To-r.From)/r.Step+1e-9)) + 1
		if n > MaxAxisValues {
			return nil, simerr.Invalidf("dse: axis %q range expands to %d values (max %d)", a.Name, n, MaxAxisValues)
		}
		out := make([]any, n)
		for i := 0; i < n; i++ {
			out[i] = r.From + float64(i)*r.Step
		}
		return out, nil
	default:
		lr := *a.LogRange
		if !finite(lr.From) || !finite(lr.To) {
			return nil, simerr.Invalidf("dse: axis %q log_range bounds must be finite", a.Name)
		}
		if lr.From <= 0 || lr.To < lr.From {
			return nil, simerr.Invalidf("dse: axis %q log_range needs 0 < from <= to", a.Name)
		}
		if lr.Points < 1 || lr.Points > MaxAxisValues {
			return nil, simerr.Invalidf("dse: axis %q log_range points must be in [1, %d], got %d", a.Name, MaxAxisValues, lr.Points)
		}
		if lr.Points == 1 {
			return []any{lr.From}, nil
		}
		out := make([]any, lr.Points)
		// Endpoints are pinned exactly; interior points interpolate in log
		// space by index so the sequence never drifts with accumulation.
		out[0], out[lr.Points-1] = lr.From, lr.To
		lf, lt := math.Log(lr.From), math.Log(lr.To)
		for i := 1; i < lr.Points-1; i++ {
			frac := float64(i) / float64(lr.Points-1)
			out[i] = math.Exp(lf + frac*(lt-lf))
		}
		return out, nil
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Grid is an ordered list of axes. Point order is row-major: axis 0 varies
// slowest, the last axis fastest — the mixed-radix decode of the point
// index. The order is part of the deterministic contract: wave boundaries
// and therefore prune decisions are defined over it.
type Grid struct {
	Axes []Axis `json:"axes"`
}

// Expanded validates the grid and materialises every axis.
func (g Grid) Expanded() ([][]any, error) {
	if len(g.Axes) == 0 {
		return nil, simerr.Invalidf("dse: grid needs at least one axis")
	}
	seen := map[string]bool{}
	vals := make([][]any, len(g.Axes))
	size := 1
	for i, a := range g.Axes {
		if seen[a.Name] {
			return nil, simerr.Invalidf("dse: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		v, err := a.Expand()
		if err != nil {
			return nil, err
		}
		vals[i] = v
		size *= len(v)
		if size > MaxGridSize {
			return nil, simerr.Invalidf("dse: grid expands to more than %d points", MaxGridSize)
		}
	}
	return vals, nil
}

// Point is one coordinate of the grid: its row-major index plus the
// axis-name → value map.
type Point struct {
	Index  int            `json:"index"`
	Coords map[string]any `json:"coords"`
}

// Points expands the whole grid in index order.
func (g Grid) Points() ([]Point, error) {
	vals, err := g.Expanded()
	if err != nil {
		return nil, err
	}
	n := 1
	for _, v := range vals {
		n *= len(v)
	}
	pts := make([]Point, n)
	for idx := 0; idx < n; idx++ {
		coords := make(map[string]any, len(g.Axes))
		rem := idx
		// Mixed-radix decode, last axis fastest.
		for ax := len(g.Axes) - 1; ax >= 0; ax-- {
			k := len(vals[ax])
			coords[g.Axes[ax].Name] = vals[ax][rem%k]
			rem /= k
		}
		pts[idx] = Point{Index: idx, Coords: coords}
	}
	return pts, nil
}
