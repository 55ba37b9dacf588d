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
// sweep can evaluate without dispatching a child job. Power and logical
// error are cheap and exact, which makes the bound tight on those axes.
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
