// Workload fidelity: run the Fig. 11 benchmark suite through the full QIsim
// pipeline — QASM → compile → cycle-accurate simulation → Pauli-channel
// fidelity — on a set of IBMQ-like machines, and show the gate-timing trace
// of one circuit.
//
//	go run ./examples/workload_fidelity
package main

import (
	"context"
	"fmt"
	"os"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/pauli"
	"qisim/internal/simrun"
	"qisim/internal/validate"
	"qisim/internal/workloads"
)

func main() {
	sizes := validate.BenchmarkSizes()
	machines := validate.Machines()

	fmt.Printf("%-14s", "benchmark")
	for _, m := range machines {
		fmt.Printf(" %14s", m.Name)
	}
	fmt.Println()
	for _, b := range workloads.Names() {
		fmt.Printf("%-14s", b)
		for _, m := range machines {
			f, err := validate.ModelFidelity(m, b, sizes[b])
			if err != nil {
				fmt.Fprintf(os.Stderr, "workload_fidelity: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf(" %14.4f", f)
		}
		fmt.Println()
	}

	// Peek inside the pipeline for one benchmark: GHZ-8 on ibm_mumbai.
	fmt.Println("\nGHZ-8 pipeline detail on ibm_mumbai:")
	prog := workloads.GHZ(8)
	ex, err := compile.Compile(prog, compile.DefaultOptions())
	if err != nil {
		panic(err)
	}
	res, err := cyclesim.Run(ex, cyclesim.CMOSConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("  ops %d, makespan %.0f ns, drive duty %.3f, readout duty %.3f\n",
		len(res.Ops), res.TotalTime*1e9, res.ActivityFactor("drive"), res.ActivityFactor("readout"))
	for _, op := range res.Ops[:6] {
		fmt.Printf("  %-8s q%-2d %7.0f → %7.0f ns\n", op.Name, op.Qubit, op.Start*1e9, op.End*1e9)
	}
	rates := machines[1].Rates
	cfg := pauli.DefaultConfig(rates)
	esp := pauli.ESP(res, cfg)
	cfg.Shots = 20000
	mc, err := pauli.MonteCarloCtx(context.Background(), res, cfg, simrun.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "workload_fidelity: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  fidelity: analytic ESP %.4f, Monte-Carlo %.4f\n", esp, mc.Fidelity)
}
