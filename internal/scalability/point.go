package scalability

import (
	"math"

	"qisim/internal/microarch"
	"qisim/internal/simerr"
	"qisim/internal/wiring"
)

// Metric names produced by AnalyzePointChecked, shared with the dse layer's
// objectives (internal/dse, internal/service dse.sweep).
const (
	MetricMaxQubits    = "max_qubits"
	MetricLogicalError = "logical_error"
	MetricPower4K      = "power_4k_w"
	MetricPower100mK   = "power_100mk_w"
	MetricPower20mK    = "power_20mk_w"
	MetricErrorLimit   = "error_limit"
)

// AnalyzePointChecked evaluates one design-space point — a named design at
// a code distance with an extra per-gate error contribution (the
// sensitivity knob of Fig. 15) — into the flat metric map the DSE layer
// folds into Pareto frontiers. The map holds only finite float64s (JSON-
// safe; +Inf stage limits are clamped to MaxFloat64) and its serialised
// form is deterministic, which the sweep byte-identity contract relies on.
func AnalyzePointChecked(d microarch.Design, extraGateError float64, opt Options) (map[string]float64, error) {
	if err := checkPointArgs(extraGateError, opt); err != nil {
		return nil, err
	}
	pb := d.PerQubitPower()
	_, maxQ, _ := stageLimits(pb.StageW, opt.Budgets)
	pl := d.LogicalError(extraGateError)
	errLimit := opt.Targets.MaxPhysicalQubits(pl, opt.Distance)
	if errLimit < maxQ {
		maxQ = errLimit
	}
	if math.IsNaN(pl) || math.IsNaN(maxQ) {
		return nil, simerr.Numericalf("scalability: NaN analyzing point %q (p_L %v, max qubits %v)", d.Name, pl, maxQ)
	}
	return map[string]float64{
		MetricMaxQubits:    clampInf(maxQ),
		MetricLogicalError: pl,
		MetricPower4K:      pb.StageW[wiring.Stage4K],
		MetricPower100mK:   pb.StageW[wiring.Stage100mK],
		MetricPower20mK:    pb.StageW[wiring.Stage20mK],
		MetricErrorLimit:   clampInf(errLimit),
	}, nil
}

// PointBound returns optimistic metrics for the same point: every value is
// at least as good (under the DSE default objectives — max qubits, min
// power, min error) as AnalyzePointChecked can report. The qubit cap keeps
// only the power-limited term — dropping the error-limit crossing, the
// expensive half of the analysis — so the bound is a genuine relaxation the
// sweep can check before it spends an evaluation on the point. Power and
// logical error are cheap and exact, which makes the bound tight on those
// axes.
func PointBound(d microarch.Design, extraGateError float64, opt Options) map[string]float64 {
	pb := d.PerQubitPower()
	_, maxQ, _ := stageLimits(pb.StageW, opt.Budgets)
	return map[string]float64{
		MetricMaxQubits:    clampInf(maxQ),
		MetricLogicalError: d.LogicalError(extraGateError),
		MetricPower4K:      pb.StageW[wiring.Stage4K],
		MetricPower100mK:   pb.StageW[wiring.Stage100mK],
		MetricPower20mK:    pb.StageW[wiring.Stage20mK],
	}
}

// The coordinates a design-space point may set: the axis names of a
// dse.sweep grid and the fields of a dse.point request.
const (
	CoordDesign         = "design"
	CoordDistance       = "distance"
	CoordExtraGateError = "extra_gate_error"
)

// GridPoint is one design-space point: a named design at a code distance
// with an extra per-gate error, analysed under the default budgets or, with
// Extended, the budgets that add the 70 K stage. It is also the dse.point
// request's params.
type GridPoint struct {
	Design         string  `json:"design"`
	Distance       int     `json:"distance"`
	ExtraGateError float64 `json:"extra_gate_error"`
	Extended       bool    `json:"extended"`
}

// PointAt projects a grid point's coordinates (axis name → value, numbers
// as float64) onto a GridPoint: a swept distance overrides the sweep-level
// distance, and extended applies to every point.
func PointAt(coords map[string]any, distance int, extended bool) GridPoint {
	p := GridPoint{Distance: distance, Extended: extended}
	p.Design, _ = coords[CoordDesign].(string)
	if f, ok := coords[CoordDistance].(float64); ok {
		p.Distance = int(f)
	}
	p.ExtraGateError, _ = coords[CoordExtraGateError].(float64)
	return p
}

// Analyze evaluates the point through AnalyzePointChecked. An unknown
// design is an invalid-config error.
func (p GridPoint) Analyze() (map[string]float64, error) {
	d, ok := microarch.DesignByName(p.Design)
	if !ok {
		return nil, simerr.Invalidf("scalability: unknown design %q", p.Design)
	}
	return AnalyzePointChecked(d, p.ExtraGateError, OptionsFor(p.Distance, p.Extended))
}

// Bound is PointBound for the point; nil for an unknown design, which never
// prunes.
func (p GridPoint) Bound() map[string]float64 {
	d, ok := microarch.DesignByName(p.Design)
	if !ok {
		return nil
	}
	return PointBound(d, p.ExtraGateError, OptionsFor(p.Distance, p.Extended))
}

func checkPointArgs(extraGateError float64, opt Options) error {
	if err := checkOptions(opt); err != nil {
		return err
	}
	if math.IsNaN(extraGateError) || math.IsInf(extraGateError, 0) || extraGateError < 0 || extraGateError > 1 {
		return simerr.Invalidf("scalability: extra gate error must be in [0,1], got %v", extraGateError)
	}
	return nil
}

func clampInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
