// Readout lab: explore the readout decision units of the paper — bin
// counting, single point, and the Opt-#7 multi-round early decision — plus
// the SFQ/JPM readout pipeline of Opt-#3 and Opt-#8.
//
//	go run ./examples/readout_lab
package main

import (
	"context"
	"fmt"
	"os"

	"qisim/internal/jpm"
	"qisim/internal/readout"
	"qisim/internal/simrun"
)

func main() {
	ctx := context.Background()
	c, tm := readout.DefaultChain(), readout.DefaultTiming()

	fmt.Println("CMOS dispersive readout (Fig. 19):")
	fmt.Printf("  %-22s %12s %10s\n", "method", "error", "time")
	fmt.Printf("  %-22s %12.3g %7.0f ns\n", "bin counting", readout.BinCountingError(c, tm, 8), tm.TotalTime(8)*1e9)
	fmt.Printf("  %-22s %12.3g %7.0f ns\n", "single point", readout.SinglePointError(c, tm, 8), tm.TotalTime(8)*1e9)
	mr, err := readout.MultiRoundErrorCtx(ctx, c, tm, readout.DefaultMultiRoundConfig(), simrun.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "readout_lab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  %-22s %12.3g %7.0f ns (mean; %.1f%% faster)\n", "multi-round (Opt-#7)", mr.Error, mr.MeanTime*1e9, 100*mr.Speedup)

	fmt.Println("\nerror vs integration time (bin counting):")
	for rounds := 1; rounds <= 8; rounds++ {
		fmt.Printf("  %4.0f ns: %.3g\n", tm.TotalTime(float64(rounds))*1e9, readout.BinCountingError(c, tm, rounds))
	}

	fmt.Println("\nphysics-level cross-check (full cavity trajectories):")
	tr, err := readout.TrajectoryMCCtx(ctx, readout.DefaultTrajectoryConfig(), c, simrun.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "readout_lab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  bin %.3g, single %.3g, pointer separation %.2f\n", tr.BinError, tr.SingleError, tr.Separation)

	fmt.Println("\nSFQ/JPM readout pipeline (Fig. 15 / Opt-#3, Opt-#8):")
	for _, mode := range []jpm.ShareMode{jpm.Unshared, jpm.NaiveShared, jpm.Pipelined} {
		p := jpm.NewPipeline(mode)
		fmt.Printf("  %-20s %8.1f ns (error %.3g)\n", mode, p.TotalLatency()*1e9, p.ReadoutError())
	}
	fast := jpm.NewPipeline(jpm.Unshared)
	fast.FastDriving = true
	fmt.Printf("  %-20s %8.1f ns (Opt-#8 fast driving, boost %.2fx)\n",
		"unshared+fast", fast.TotalLatency()*1e9, fast.Drive.RateBoost())

	fmt.Println("\npipelined timeline (first two qubits):")
	p := jpm.NewPipeline(jpm.Pipelined)
	for _, ev := range p.Timeline() {
		if ev.Qubit <= 1 {
			fmt.Printf("  q%d %-7s %7.1f → %7.1f ns\n", ev.Qubit, ev.Stage, ev.Start*1e9, ev.End*1e9)
		}
	}
	if err := p.Validate(); err != nil {
		fmt.Println("  INVALID SCHEDULE:", err)
	} else {
		fmt.Println("  schedule valid: no read overlaps any write on the shared line")
	}
}
