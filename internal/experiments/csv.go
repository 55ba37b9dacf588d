package experiments

import (
	"context"
	"fmt"
	"strings"

	"qisim/internal/microarch"
	"qisim/internal/scalability"
	"qisim/internal/wiring"
)

// figureDesigns maps scalability figures to their design sets.
func figureDesigns(id string) ([]string, error) {
	switch id {
	case "fig12":
		return []string{"300K-coax", "300K-microstrip", "300K-photonic"}, nil
	case "fig13":
		return []string{"4K-CMOS-baseline", "4K-CMOS-opt12", "RSFQ-baseline", "RSFQ-naive-sharing", "RSFQ-opt345"}, nil
	case "fig17":
		return []string{"4K-CMOS-advanced", "4K-CMOS-advanced-opt6", "4K-CMOS-advanced-opt67", "ERSFQ-opt8"}, nil
	default:
		return nil, fmt.Errorf("experiments: no CSV sweep for %q (fig12/fig13/fig17)", id)
	}
}

// FigureCSV renders the sweep data behind a scalability figure as CSV: one
// row per (design, qubit count) with per-stage utilisation, logical error,
// target, and feasibility — the series the paper plots.
func FigureCSV(id string) (string, error) {
	names, err := figureDesigns(id)
	if err != nil {
		return "", err
	}
	opt := scalability.DefaultOptions()
	var b strings.Builder
	b.WriteString("design,qubits,util_4k,util_100mk,util_20mk,logical_error,target,feasible\n")
	for _, name := range names {
		var design microarch.Design
		found := false
		for _, d := range microarch.AllDesigns() {
			if d.Name == name {
				design, found = d, true
			}
		}
		if !found {
			return "", fmt.Errorf("experiments: unknown design %q", name)
		}
		a := scalability.Analyze(design, opt)
		counts := sweepPoints(a.MaxQubits)
		res, err := scalability.SweepCtx(context.Background(), design, counts, opt)
		if err != nil {
			return "", fmt.Errorf("experiments: sweep %s: %w", name, err)
		}
		for _, p := range res.Points {
			fmt.Fprintf(&b, "%s,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%v\n",
				name, p.Qubits,
				p.Utilization[wiring.Stage4K],
				p.Utilization[wiring.Stage100mK],
				p.Utilization[wiring.Stage20mK],
				p.LogicalError, p.Target, p.Feasible)
		}
	}
	return b.String(), nil
}

// sweepPoints builds a log-ish grid bracketing the design's limit.
func sweepPoints(limit float64) []int {
	if limit < 8 {
		limit = 8
	}
	fracs := []float64{0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0}
	out := make([]int, 0, len(fracs))
	for _, f := range fracs {
		n := int(limit * f)
		if n < 1 {
			n = 1
		}
		out = append(out, n)
	}
	return out
}
