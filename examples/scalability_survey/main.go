// Scalability survey: reproduce the paper's core result — evaluate every
// temperature/technology candidate and print the Fig. 12/13/17 landscape,
// including per-stage utilisation curves around each design's limit.
//
//	go run ./examples/scalability_survey
package main

import (
	"context"
	"fmt"
	"os"

	"qisim/internal/microarch"
	"qisim/internal/scalability"
	"qisim/internal/wiring"
)

func main() {
	ctx := context.Background()
	opt := scalability.DefaultOptions()
	as, _, err := scalability.AnalyzeAllCtx(ctx, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scalability_survey: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(scalability.Table(as))
	fmt.Println()

	// Utilisation curve around the limit for two contrasting designs.
	for _, d := range []microarch.Design{microarch.CMOS4KBaseline(), microarch.ERSFQOpt8()} {
		a := scalability.Analyze(d, opt)
		fmt.Printf("%s — limit %.0f qubits (%s)\n", d.Name, a.MaxQubits, a.Binding)
		n := int(a.MaxQubits)
		counts := []int{n / 4, n / 2, n, n * 2}
		sw, err := scalability.SweepCtx(ctx, d, counts, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scalability_survey: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  %10s %8s %8s %8s %12s %12s %9s\n", "qubits", "4K", "100mK", "20mK", "p_L", "target", "feasible")
		for _, p := range sw.Points {
			fmt.Printf("  %10d %7.1f%% %7.1f%% %7.1f%% %12.3g %12.3g %9v\n",
				p.Qubits,
				100*p.Utilization[wiring.Stage4K],
				100*p.Utilization[wiring.Stage100mK],
				100*p.Utilization[wiring.Stage20mK],
				p.LogicalError, p.Target, p.Feasible)
		}
		fmt.Println()
	}

	// The paper's punchline.
	best := as[0]
	for _, a := range as {
		if a.MaxQubits > best.MaxQubits {
			best = a
		}
	}
	fmt.Printf("best design: %s at %.0f qubits — beyond the 62,208-qubit (Jellium N=54) supremacy goal\n",
		best.Design.Name, best.MaxQubits)
}
