// Command esmgen emits error-syndrome-measurement (ESM) workloads — the
// peak-power workload of the scalability analysis — as OpenQASM 2, for use
// with the cycle-accurate simulator or external tools.
//
// Usage:
//
//	esmgen -d 5 -rounds 2 > esm_d5.qasm
package main

import (
	"flag"
	"fmt"
	"os"

	"qisim/internal/buildinfo"
	"qisim/internal/qasm"
	"qisim/internal/simerr"
	"qisim/internal/surface"
)

func main() {
	d := flag.Int("d", 3, "surface-code distance (odd, >= 3)")
	rounds := flag.Int("rounds", 1, "ESM rounds")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("esmgen"))
		return
	}
	patch, err := surface.NewPatchChecked(*d)
	if err == nil && *rounds < 1 {
		err = simerr.Invalidf("rounds must be >= 1, got %d", *rounds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "esmgen:", err)
		os.Exit(simerr.ExitCode(err))
	}
	prog := &qasm.Program{NQubits: patch.TotalQubits(), NClbits: len(patch.Ancillas)}
	for r := 0; r < *rounds; r++ {
		c := 0
		for _, op := range patch.ESMCircuit() {
			switch op.Kind {
			case "h":
				prog.Gates = append(prog.Gates, qasm.Gate{Name: "h", Qubits: []int{op.Q}, CBit: -1})
			case "cz":
				prog.Gates = append(prog.Gates, qasm.Gate{Name: "cz", Qubits: []int{op.Q, op.Q2}, CBit: -1})
			case "measure":
				prog.Gates = append(prog.Gates, qasm.Gate{Name: "measure", Qubits: []int{op.Q}, CBit: c})
				c++
			}
		}
		if r+1 < *rounds {
			prog.Gates = append(prog.Gates, qasm.Gate{Name: "barrier", CBit: -1})
		}
	}
	fmt.Print(qasm.Emit(prog))
}
