// Package scalability is QIsim's headline analysis (Section 6): for a QCI
// design point it combines the per-qubit per-stage power model with the
// refrigerator budgets and the logical-error target model, and reports the
// maximum supportable physical-qubit count together with the binding
// constraint — reproducing Figs. 12, 13 and 17.
package scalability

import (
	"context"
	"fmt"
	"math"
	"strings"

	"qisim/internal/cryo"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/wiring"
)

// Constraint identifies what limits a design's scale.
type Constraint string

const (
	Power4K    Constraint = "4K power"
	Power70K   Constraint = "70K power"
	Power100mK Constraint = "100mK power"
	Power20mK  Constraint = "20mK power"
	LogicalErr Constraint = "logical error"
	Unbounded  Constraint = "unbounded"
)

func stageConstraint(s wiring.Stage) Constraint {
	switch s {
	case wiring.Stage4K:
		return Power4K
	case wiring.Stage70K:
		return Power70K
	case wiring.Stage100mK:
		return Power100mK
	default:
		return Power20mK
	}
}

// Analysis is the scalability verdict for one design.
type Analysis struct {
	Design microarch.Design
	// PerQubit is the per-qubit per-stage power.
	PerQubit map[wiring.Stage]float64
	// StageLimit is the power-limited qubit count per stage.
	StageLimit map[wiring.Stage]float64
	// LogicalError is the achieved p_L at d = 23.
	LogicalError float64
	// ErrorLimit is the error-limited qubit count (target-model crossing).
	ErrorLimit float64
	// MaxQubits is min over all limits; Binding names the constraint.
	MaxQubits float64
	Binding   Constraint
	// MeetsNearTerm reports whether the design satisfies the near-term
	// (1,152-qubit, Jellium N=2) logical-error target.
	MeetsNearTerm bool
}

// Options configure the analysis.
type Options struct {
	Budgets  cryo.Budgets
	Targets  surface.TargetModel
	Distance int
	// Workers parallelises AnalyzeAllCtx and SweepCtx across design points /
	// sweep samples (0 = GOMAXPROCS, 1 = serial). Results are bit-identical
	// for every worker count: points merge in index order.
	Workers int
	// Progress mirrors simrun.Options.Progress for the design-point / sweep
	// fan-out: called with (points committed, points requested) as the
	// in-order merge frontier advances. Observational only.
	Progress func(completed, requested int)
}

// DefaultOptions returns the Table 2 budgets, Jellium targets and d = 23.
func DefaultOptions() Options {
	return Options{Budgets: cryo.DefaultBudgets(), Targets: surface.DefaultTargets(), Distance: 23}
}

// ExtendedOptions adds the 30 W 70 K stage of the Section 7.3 extension, for
// designs that offload components there.
func ExtendedOptions() Options {
	opt := DefaultOptions()
	opt.Budgets = cryo.ExtendedBudgets()
	return opt
}

// OptionsFor returns the options at code distance distance: the default
// budgets, or with extended the ExtendedOptions budgets.
func OptionsFor(distance int, extended bool) Options {
	opt := DefaultOptions()
	if extended {
		opt = ExtendedOptions()
	}
	opt.Distance = distance
	return opt
}

// Analyze evaluates one design point.
func Analyze(d microarch.Design, opt Options) Analysis {
	a := Analysis{Design: d, PerQubit: map[wiring.Stage]float64{}}
	pb := d.PerQubitPower()
	for st := range opt.Budgets {
		a.PerQubit[st] = pb.StageW[st]
	}
	a.StageLimit, a.MaxQubits, a.Binding = stageLimits(pb.StageW, opt.Budgets)
	a.LogicalError = d.LogicalError(0)
	a.ErrorLimit = opt.Targets.MaxPhysicalQubits(a.LogicalError, opt.Distance)
	if a.ErrorLimit < a.MaxQubits {
		a.MaxQubits = a.ErrorLimit
		a.Binding = LogicalErr
	}
	near := opt.Targets.Target(1) // one logical qubit, Jellium N=2 floor
	a.MeetsNearTerm = a.LogicalError <= near
	return a
}

// stageLimits divides each budgeted stage's capacity by the design's
// per-qubit power there. It returns every stage's qubit limit (+Inf for a
// stage the design does not load), the smallest of them (+Inf when no
// stage is loaded) and the constraint that sets it (Unbounded then).
func stageLimits(stageW map[wiring.Stage]float64, budgets cryo.Budgets) (limits map[wiring.Stage]float64, maxQ float64, binding Constraint) {
	limits = make(map[wiring.Stage]float64, len(budgets))
	maxQ, binding = math.Inf(1), Unbounded
	for st, budget := range budgets {
		w := stageW[st]
		if w <= 0 {
			limits[st] = math.Inf(1)
			continue
		}
		lim := budget / w
		limits[st] = lim
		if lim < maxQ {
			maxQ, binding = lim, stageConstraint(st)
		}
	}
	return limits, maxQ, binding
}

// AnalyzeChecked is the erroring boundary for Analyze: it validates the
// options and verifies the analysis is numerically sound (no NaN leaking out
// of the power or error models) before returning it.
func AnalyzeChecked(d microarch.Design, opt Options) (Analysis, error) {
	if err := checkOptions(opt); err != nil {
		return Analysis{}, err
	}
	a := Analyze(d, opt)
	if math.IsNaN(a.LogicalError) || math.IsNaN(a.MaxQubits) {
		return Analysis{}, simerr.Numericalf("scalability: NaN in analysis of %q (p_L %v, max qubits %v)",
			d.Name, a.LogicalError, a.MaxQubits)
	}
	return a, nil
}

func checkOptions(opt Options) error {
	if opt.Distance < 3 || opt.Distance%2 == 0 {
		return simerr.Invalidf("scalability: distance must be odd and >= 3, got %d", opt.Distance)
	}
	if len(opt.Budgets) == 0 {
		return simerr.Invalidf("scalability: no refrigerator budgets configured")
	}
	for st, w := range opt.Budgets {
		if w <= 0 || math.IsNaN(w) {
			return simerr.Invalidf("scalability: budget for stage %s must be positive, got %v", st, w)
		}
	}
	return nil
}

// AnalyzeAllCtx evaluates every named design point under a context, fanning
// the designs out across opt.Workers goroutines (index-order merge keeps the
// output order and content identical for every worker count): on
// cancellation it returns the contiguous prefix of analyses completed so
// far with Truncated set.
func AnalyzeAllCtx(ctx context.Context, opt Options) ([]Analysis, simrun.Status, error) {
	if err := checkOptions(opt); err != nil {
		return nil, simrun.Status{}, err
	}
	ds := microarch.AllDesigns()
	out, status, err := simrun.RunSharded(ctx, len(ds), 0,
		simrun.Options{CheckEvery: 1, ShardSize: 1, Workers: opt.Workers, Progress: opt.Progress},
		func(t *simrun.ShardTask) ([]Analysis, int, error) {
			part := make([]Analysis, 0, t.N)
			for i := 0; t.Continue(i); i++ {
				d := ds[t.GlobalShot(i)]
				_, span := obs.StartSpan(t.Context(), "design.analyze",
					obs.String("design", d.Name))
				part = append(part, Analyze(d, opt))
				span.End()
			}
			return part, -1, nil
		},
		func(dst *[]Analysis, src []Analysis) { *dst = append(*dst, src...) })
	if err != nil {
		return nil, simrun.Status{}, err
	}
	return out, status, nil
}

// CurvePoint is one sample of a Fig. 12/13/17-style sweep.
type CurvePoint struct {
	Qubits int `json:"qubits"`
	// Utilization is power/budget per stage at this scale.
	Utilization map[wiring.Stage]float64 `json:"utilization"`
	// LogicalError and Target at this scale (target falls as the algorithm
	// grows with the machine).
	LogicalError float64 `json:"logical_error"`
	Target       float64 `json:"target"`
	Feasible     bool    `json:"feasible"`
}

// SweepResult is the context-aware sweep outcome: Points holds the curve
// samples completed before cancellation (all of them when Status.Truncated
// is false).
type SweepResult struct {
	Design string        `json:"design"`
	Points []CurvePoint  `json:"points"`
	Status simrun.Status `json:"status"`
}

// SweepCtx samples a design across qubit counts, producing the data behind
// the scalability figures. The sweep is fanned out across
// opt.Workers goroutines on the sharded engine (one point per shard,
// index-order merge — output identical for every worker count): on
// cancellation it returns the contiguous prefix of points computed so far,
// flagged Truncated, so an interrupted design-space exploration keeps the
// samples it already paid for.
func SweepCtx(ctx context.Context, d microarch.Design, qubitCounts []int, opt Options) (SweepResult, error) {
	if err := checkOptions(opt); err != nil {
		return SweepResult{}, err
	}
	if len(qubitCounts) == 0 {
		return SweepResult{}, simerr.Invalidf("scalability: sweep needs at least one qubit count")
	}
	for _, n := range qubitCounts {
		if n <= 0 {
			return SweepResult{}, simerr.Invalidf("scalability: qubit count must be positive, got %d", n)
		}
	}
	pb := d.PerQubitPower()
	pl := d.LogicalError(0)
	perPatch := float64(surface.PhysicalQubitsPerPatch(opt.Distance))
	points, status, gerr := simrun.RunSharded(ctx, len(qubitCounts), 0,
		simrun.Options{CheckEvery: 1, ShardSize: 1, Workers: opt.Workers, Progress: opt.Progress},
		func(t *simrun.ShardTask) ([]CurvePoint, int, error) {
			part := make([]CurvePoint, 0, t.N)
			for i := 0; t.Continue(i); i++ {
				n := qubitCounts[t.GlobalShot(i)]
				_, span := obs.StartSpan(t.Context(), "sweep.point", obs.Int("qubits", n))
				cp := CurvePoint{Qubits: n, Utilization: map[wiring.Stage]float64{}, LogicalError: pl}
				cp.Feasible = true
				for st, budget := range opt.Budgets {
					u := pb.StageW[st] * float64(n) / budget
					cp.Utilization[st] = u
					if u > 1 {
						cp.Feasible = false
					}
				}
				nLogical := float64(n) / perPatch
				cp.Target = opt.Targets.Target(nLogical)
				if pl > cp.Target {
					cp.Feasible = false
				}
				span.SetAttr(obs.Bool("feasible", cp.Feasible))
				span.End()
				part = append(part, cp)
			}
			return part, -1, nil
		},
		func(dst *[]CurvePoint, src []CurvePoint) { *dst = append(*dst, src...) })
	if gerr != nil {
		return SweepResult{}, gerr
	}
	return SweepResult{Design: d.Name, Points: points, Status: status}, nil
}

// Table renders a set of analyses as an aligned text table.
func Table(as []Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %12s %12s %12s %12s %10s %-14s\n",
		"design", "4K W/qubit", "100mK", "20mK", "p_L(d=23)", "err-limit", "max-qubits", "binding")
	for _, a := range as {
		fmt.Fprintf(&b, "%-26s %12.3g %12.3g %12.3g %12.3g %12.0f %10.0f %-14s\n",
			a.Design.Name,
			a.PerQubit[wiring.Stage4K], a.PerQubit[wiring.Stage100mK], a.PerQubit[wiring.Stage20mK],
			a.LogicalError, capInf(a.ErrorLimit), capInf(a.MaxQubits), a.Binding)
	}
	return b.String()
}

func capInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}
