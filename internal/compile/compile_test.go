package compile

import (
	"errors"
	"math"
	"sort"
	"testing"

	"qisim/internal/cmath"
	"qisim/internal/phys"
	"qisim/internal/qasm"
	"qisim/internal/simerr"
)

func mustParse(t *testing.T, src string) *qasm.Program {
	t.Helper()
	p, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompileRejectsCorruptedProgram: structural corruption built directly
// into a Program is caught by Validate before lowering, so Compile returns
// ErrInvalidConfig instead of indexing a queue that does not exist.
func TestCompileRejectsCorruptedProgram(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *qasm.Program
	}{
		{"qubit 17 of 4", &qasm.Program{NQubits: 4, NClbits: 4, Gates: []qasm.Gate{
			{Name: "h", Qubits: []int{0}, CBit: -1},
			{Name: "cx", Qubits: []int{0, 17}, CBit: -1},
		}}},
		{"NaN rz angle", &qasm.Program{NQubits: 2, NClbits: 2, Gates: []qasm.Gate{
			{Name: "rz", Qubits: []int{0}, Params: []float64{math.NaN()}, CBit: -1},
		}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Errorf("Validate gave %v, want ErrInvalidConfig", err)
			}
			if _, err := Compile(c.p, DefaultOptions()); !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Errorf("Compile gave %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestCompileSingleQubit(t *testing.T) {
	p := mustParse(t, "qreg q[2]; h q[0]; x q[1];")
	ex, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Queues[0]) != 1 || len(ex.Queues[1]) != 1 {
		t.Fatalf("queue lengths %d/%d", len(ex.Queues[0]), len(ex.Queues[1]))
	}
	if ex.Queues[0][0].Duration != phys.CMOSOperationSpecs().OneQ.Latency {
		t.Fatal("1Q latency should come from Table 2")
	}
	if ex.NumOneQ != 2 {
		t.Fatalf("NumOneQ = %d", ex.NumOneQ)
	}
}

func TestVirtualRz(t *testing.T) {
	p := mustParse(t, "qreg q[1]; rz(0.5) q[0]; s q[0]; t q[0];")
	ex, _ := Compile(p, DefaultOptions())
	for _, in := range ex.Queues[0] {
		if !in.Virtual || in.Duration != 0 {
			t.Fatalf("z-family gate should be virtual: %+v", in)
		}
	}
	if ex.NumOneQ != 0 {
		t.Fatal("virtual gates must not count as physical 1Q ops")
	}
	// Without virtual Rz they are physical.
	opt := DefaultOptions()
	opt.VirtualRz = false
	ex2, _ := Compile(p, opt)
	if ex2.NumOneQ != 3 {
		t.Fatalf("non-virtual lowering: NumOneQ = %d, want 3", ex2.NumOneQ)
	}
}

func TestCompileCZSharedID(t *testing.T) {
	p := mustParse(t, "qreg q[2]; cz q[0],q[1];")
	ex, _ := Compile(p, DefaultOptions())
	a, b := ex.Queues[0][0], ex.Queues[1][0]
	if a.ID != b.ID || a.Kind != TwoQ || b.Kind != TwoQ {
		t.Fatalf("CZ must appear on both queues with shared id: %+v %+v", a, b)
	}
	if a.Partner != 1 || b.Partner != 0 {
		t.Fatal("partners wrong")
	}
}

func TestCompileCXDecomposition(t *testing.T) {
	p := mustParse(t, "qreg q[2]; cx q[0],q[1];")
	ex, _ := Compile(p, DefaultOptions())
	// Target queue: H, CZ, H. Control queue: CZ.
	if len(ex.Queues[1]) != 3 || len(ex.Queues[0]) != 1 {
		t.Fatalf("cx queues %d/%d, want 1/3", len(ex.Queues[0]), len(ex.Queues[1]))
	}
	if ex.Queues[1][0].Name != "h" || ex.Queues[1][1].Name != "cz" || ex.Queues[1][2].Name != "h" {
		t.Fatalf("cx target order wrong: %+v", ex.Queues[1])
	}
}

// TestCompileSwap: swap, and the cx and cz it is built from, lower to
// instructions whose product in program order is the gate's unitary up to
// global phase (basis |q0 q1>, q0 the high bit).
func TestCompileSwap(t *testing.T) {
	h := cmath.FromRows([][]complex128{{1, 1}, {1, -1}})
	h = cmath.Scale(complex(1/math.Sqrt2, 0), h)
	perm := func(cols ...int) *cmath.Matrix { // column j holds basis vector cols[j]
		m := cmath.NewMatrix(4, 4)
		for j, i := range cols {
			m.Set(i, j, 1)
		}
		return m
	}
	for _, c := range []struct {
		gate       string
		want       *cmath.Matrix
		oneQ, twoQ int
	}{
		{"cx", perm(0, 1, 3, 2), 2, 1},
		{"cz", cmath.CZ(), 0, 1},
		{"swap", perm(0, 2, 1, 3), 6, 3},
	} {
		t.Run(c.gate, func(t *testing.T) {
			ex, err := Compile(mustParse(t, "qreg q[2]; "+c.gate+" q[0],q[1];"), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if ex.NumOneQ != c.oneQ || ex.NumTwoQ != c.twoQ {
				t.Errorf("%s lowers to %d 1Q and %d 2Q ops, want %d and %d", c.gate, ex.NumOneQ, ex.NumTwoQ, c.oneQ, c.twoQ)
			}
			// A CZ sits in both queues under one ID; IDs follow program order.
			byID := map[int]Instr{}
			for _, q := range ex.Queues {
				for _, in := range q {
					byID[in.ID] = in
				}
			}
			ids := make([]int, 0, len(byID))
			for id := range byID {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			u := cmath.Identity(4)
			for _, id := range ids {
				in := byID[id]
				var g *cmath.Matrix
				switch {
				case in.Name == "cz":
					g = cmath.CZ()
				case in.Name == "h" && in.Qubit == 0:
					g = cmath.Kron(h, cmath.Identity(2))
				case in.Name == "h":
					g = cmath.Kron(cmath.Identity(2), h)
				default:
					t.Fatalf("unexpected lowered instruction %+v", in)
				}
				u = cmath.Mul(g, u)
			}
			if e := cmath.GateError(c.want, u); e > 1e-12 {
				t.Fatalf("%s: the lowered product is %.3g from the gate's unitary (1 − average gate fidelity)", c.gate, e)
			}
		})
	}
}

func TestCompileMeasureReadoutOverride(t *testing.T) {
	p := mustParse(t, "qreg q[1]; creg c[1]; measure q[0] -> c[0];")
	opt := DefaultOptions()
	opt.ReadoutTime = 306e-9
	ex, _ := Compile(p, opt)
	if ex.Queues[0][0].Duration != 306e-9 {
		t.Fatal("readout override not applied")
	}
	if ex.NumMeasure != 1 {
		t.Fatal("measure not counted")
	}
}

func TestCompileBarrierOnAllQueues(t *testing.T) {
	p := mustParse(t, "qreg q[3]; h q[0]; barrier q; h q[1];")
	ex, _ := Compile(p, DefaultOptions())
	for q := 0; q < 3; q++ {
		found := false
		for _, in := range ex.Queues[q] {
			if in.Kind == Barrier {
				found = true
			}
		}
		if !found {
			t.Fatalf("qubit %d missing barrier", q)
		}
	}
}

func TestGateKeyDistinguishesParams(t *testing.T) {
	a := Instr{Name: "ry", Param: 0.5}
	b := Instr{Name: "ry", Param: 0.25}
	if a.GateKey() == b.GateKey() {
		t.Fatal("gate keys must include the parameter")
	}
}
