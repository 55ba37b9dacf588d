// Package compile lowers parsed OpenQASM programs to the per-qubit FIFO
// instruction queues the cycle-accurate simulator executes (Section 4.2):
// every gate becomes a timed instruction with its Table 2 latency; two-qubit
// gates are enqueued on both participants with a shared id so the simulator
// can enforce the true dependency; barriers synchronise all queues.
package compile

import (
	"fmt"

	"qisim/internal/phys"
	"qisim/internal/qasm"
	"qisim/internal/simerr"
)

// Kind classifies instructions for the simulator and the power model.
type Kind int

const (
	OneQ Kind = iota
	TwoQ
	Measure
	Barrier
)

func (k Kind) String() string {
	switch k {
	case OneQ:
		return "1q"
	case TwoQ:
		return "2q"
	case Measure:
		return "measure"
	default:
		return "barrier"
	}
}

// Instr is one lowered instruction.
type Instr struct {
	ID       int
	Kind     Kind
	Name     string
	Param    float64
	Qubit    int
	Partner  int // the other qubit of a 2Q gate, else -1
	Duration float64
	// Virtual marks zero-duration software operations (virtual Rz).
	Virtual bool
}

// GateKey identifies broadcast-mergeable gates (same physical pulse).
func (in Instr) GateKey() string {
	return fmt.Sprintf("%s/%.9f", in.Name, in.Param)
}

// Executable is the compiled program: one FIFO per qubit.
type Executable struct {
	NQubits int
	Queues  [][]Instr
	// Counts per kind, for traffic accounting.
	NumOneQ, NumTwoQ, NumMeasure int
}

// Options control the lowering.
type Options struct {
	Specs phys.OperationSpecs
	// VirtualRz lowers rz/z/s/t-family gates to zero-duration phase updates
	// (the extended NCO datapath of Section 3.3.1). Without it they occupy
	// the drive circuit like any other 1Q gate.
	VirtualRz bool
	// ReadoutTime overrides Specs.Readout.Latency when > 0 (e.g. the
	// Opt-#7 multi-round expected latency or a JPM pipeline latency).
	ReadoutTime float64
}

// DefaultOptions lowers with the CMOS Table 2 latencies and virtual Rz.
func DefaultOptions() Options {
	return Options{Specs: phys.CMOSOperationSpecs(), VirtualRz: true}
}

var zFamily = map[string]bool{"z": true, "s": true, "sdg": true, "t": true, "tdg": true, "rz": true}

// Compile lowers a program. Corrupted instruction streams — out-of-range
// qubit indices, wrong arity, non-finite parameters — are rejected with a
// typed ErrInvalidConfig before lowering; no input program can make Compile
// panic.
func Compile(p *qasm.Program, opt Options) (ex *Executable, err error) {
	defer simerr.RecoverInto(&err, simerr.ErrInvalidConfig)
	if verr := p.Validate(); verr != nil {
		return nil, verr
	}
	ex = &Executable{NQubits: p.NQubits, Queues: make([][]Instr, p.NQubits)}
	ro := opt.Specs.Readout.Latency
	if opt.ReadoutTime > 0 {
		ro = opt.ReadoutTime
	}
	id := 0
	push := func(q int, in Instr) {
		ex.Queues[q] = append(ex.Queues[q], in)
	}
	for _, g := range p.Gates {
		id++
		switch {
		case g.Name == "barrier":
			for q := 0; q < p.NQubits; q++ {
				push(q, Instr{ID: id, Kind: Barrier, Name: "barrier", Qubit: q, Partner: -1})
			}
		case g.Name == "measure":
			ex.NumMeasure++
			push(g.Qubits[0], Instr{
				ID: id, Kind: Measure, Name: "measure", Qubit: g.Qubits[0],
				Partner: -1, Duration: ro,
			})
		case g.Name == "cx", g.Name == "cz", g.Name == "swap":
			a, b := g.Qubits[0], g.Qubits[1]
			pushH := func(q int) {
				id++
				ex.NumOneQ++
				push(q, Instr{
					ID: id, Kind: OneQ, Name: "h", Qubit: q,
					Partner: -1, Duration: opt.Specs.OneQ.Latency,
				})
			}
			pushCZ := func() {
				id++
				ex.NumTwoQ++
				in := Instr{ID: id, Kind: TwoQ, Name: "cz", Qubit: a, Partner: b, Duration: opt.Specs.TwoQ.Latency}
				push(a, in)
				in.Qubit, in.Partner = b, a
				push(b, in)
			}
			switch g.Name {
			case "cz":
				id-- // pushCZ assigns its own id
				pushCZ()
			case "cx":
				// cx = (I⊗H)·CZ·(I⊗H): H target, CZ, H target.
				id--
				pushH(b)
				pushCZ()
				pushH(b)
			case "swap":
				// swap = cx(a,b)·cx(b,a)·cx(a,b), each cx lowered as above;
				// the Hadamards between the CZs pair up on both qubits.
				id--
				pushH(b)
				pushCZ()
				pushH(a)
				pushH(b)
				pushCZ()
				pushH(a)
				pushH(b)
				pushCZ()
				pushH(b)
			}
		default: // single-qubit gates
			param := 0.0
			if len(g.Params) > 0 {
				param = g.Params[0]
			}
			in := Instr{
				ID: id, Kind: OneQ, Name: g.Name, Param: param,
				Qubit: g.Qubits[0], Partner: -1, Duration: opt.Specs.OneQ.Latency,
			}
			if opt.VirtualRz && zFamily[g.Name] {
				in.Duration = 0
				in.Virtual = true
			} else {
				ex.NumOneQ++
			}
			push(g.Qubits[0], in)
		}
	}
	return ex, nil
}
