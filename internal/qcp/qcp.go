// Package qcp is the quantum-control-processor interface of Section 7.2:
// the layer an XQsim-class QCP occupies between logical instructions and the
// QCI. It translates lattice-surgery operations (internal/lattice) into
// physical gate streams — per-round ESM circuits over the involved patches —
// and feeds them to the cycle-accurate simulator, closing the loop from
// logical program to physical timing and activity.
package qcp

import (
	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/lattice"
	"qisim/internal/qasm"
	"qisim/internal/surface"
)

// Translator lowers logical programs onto a physical qubit map: each patch
// owns a contiguous block of TotalQubits() physical indices.
type Translator struct {
	Layout lattice.Layout
	patch  *surface.Patch
}

// NewTranslator builds a translator for a layout.
func NewTranslator(l lattice.Layout) *Translator {
	return &Translator{Layout: l, patch: surface.NewPatch(l.D)}
}

// PatchQubits returns the physical qubits per patch (data + ancilla).
func (t *Translator) PatchQubits() int { return t.patch.TotalQubits() }

// TotalQubits returns the machine's physical qubit count.
func (t *Translator) TotalQubits() int {
	return t.Layout.LogicalQubits() * t.PatchQubits()
}

// base returns the physical index base of a patch.
func (t *Translator) base(patchIdx int) int { return patchIdx * t.PatchQubits() }

// appendESMRound emits one ESM round on the given patch into the program.
func (t *Translator) appendESMRound(prog *qasm.Program, patchIdx int, cbit *int) {
	b := t.base(patchIdx)
	for _, op := range t.patch.ESMCircuit() {
		switch op.Kind {
		case "h":
			prog.Gates = append(prog.Gates, qasm.Gate{Name: "h", Qubits: []int{b + op.Q}, CBit: -1})
		case "cz":
			prog.Gates = append(prog.Gates, qasm.Gate{Name: "cz", Qubits: []int{b + op.Q, b + op.Q2}, CBit: -1})
		case "measure":
			prog.Gates = append(prog.Gates, qasm.Gate{Name: "measure", Qubits: []int{b + op.Q}, CBit: *cbit})
			*cbit++
		}
	}
}

// Translate lowers a logical program into the full physical circuit: every
// phase of every scheduled operation becomes that many ESM rounds over its
// involved patches, with barriers separating rounds (the QCP's round
// boundary).
func (t *Translator) Translate(pr lattice.Program) (*qasm.Program, error) {
	ops, _, err := pr.ScheduleAll()
	if err != nil {
		return nil, err
	}
	prog := &qasm.Program{NQubits: t.TotalQubits()}
	cbit := 0
	for _, op := range ops {
		for _, ph := range op.Phases {
			for r := 0; r < ph.Rounds; r++ {
				for _, p := range ph.Patches {
					t.appendESMRound(prog, p, &cbit)
				}
				prog.Gates = append(prog.Gates, qasm.Gate{Name: "barrier", CBit: -1})
			}
		}
	}
	prog.NClbits = cbit
	return prog, nil
}

// RunResult couples the physical simulation with logical accounting.
type RunResult struct {
	Physical  *cyclesim.Result
	Rounds    int
	RoundTime float64 // measured mean time per ESM round
}

// Run translates a logical program and executes it on a QCI configuration —
// the end-to-end QCP→QCI pipeline.
func (t *Translator) Run(pr lattice.Program, cfg cyclesim.Config, opt compile.Options) (RunResult, error) {
	prog, err := t.Translate(pr)
	if err != nil {
		return RunResult{}, err
	}
	ex, err := compile.Compile(prog, opt)
	if err != nil {
		return RunResult{}, err
	}
	res, err := cyclesim.Run(ex, cfg)
	if err != nil {
		return RunResult{}, err
	}
	_, rounds, err := pr.ScheduleAll()
	if err != nil {
		return RunResult{}, err
	}
	rr := RunResult{Physical: res, Rounds: rounds}
	if rounds > 0 {
		rr.RoundTime = res.TotalTime / float64(rounds)
	}
	return rr, nil
}
