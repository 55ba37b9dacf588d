package qasm

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"qisim/internal/simerr"
)

const sample = `
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
ry(-0.25) q[1];
cz q[1], q[2];
barrier q;
measure q[0] -> c[0];
measure q[2] -> c[2];
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.NQubits != 3 || p.NClbits != 3 {
		t.Fatalf("registers %d/%d, want 3/3", p.NQubits, p.NClbits)
	}
	if len(p.Gates) != 8 {
		t.Fatalf("gate count %d, want 8", len(p.Gates))
	}
	if p.Gates[0].Name != "h" || p.Gates[0].Qubits[0] != 0 {
		t.Fatalf("first gate %+v", p.Gates[0])
	}
	if p.Gates[1].Name != "cx" || p.Gates[1].Qubits[1] != 1 {
		t.Fatalf("cx parse wrong: %+v", p.Gates[1])
	}
	if math.Abs(p.Gates[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("rz(pi/2) param = %v", p.Gates[2].Params[0])
	}
	if math.Abs(p.Gates[3].Params[0]+0.25) > 1e-12 {
		t.Fatalf("ry(-0.25) param = %v", p.Gates[3].Params[0])
	}
	last := p.Gates[7]
	if last.Name != "measure" || last.Qubits[0] != 2 || last.CBit != 2 {
		t.Fatalf("measure parse wrong: %+v", last)
	}
}

func TestMultipleRegisters(t *testing.T) {
	p, err := Parse("qreg a[2]; qreg b[2]; h b[1];")
	if err != nil {
		t.Fatal(err)
	}
	if p.NQubits != 4 {
		t.Fatalf("NQubits = %d", p.NQubits)
	}
	if p.Gates[0].Qubits[0] != 3 {
		t.Fatalf("b[1] should flatten to 3, got %d", p.Gates[0].Qubits[0])
	}
}

func TestParamExpressions(t *testing.T) {
	cases := map[string]float64{
		"rz(pi) q[0];":      math.Pi,
		"rz(2*pi) q[0];":    2 * math.Pi,
		"rz(pi/4) q[0];":    math.Pi / 4,
		"rz(-3*pi/4) q[0];": -3 * math.Pi / 4,
		"rz(0.125) q[0];":   0.125,
	}
	for src, want := range cases {
		p, err := Parse("qreg q[1]; " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := p.Gates[0].Params[0]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: param %v, want %v", src, got, want)
		}
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"qreg q[2]; bogus q[0];",
		"qreg q[2]; h q[0], q[1];",
		"qreg q[2]; cx q[0];",
		"qreg q[]; h q[0];",
		"qreg q[2]; h r[0];",
		"qreg q[1]; measure q[0];",
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, simerr.ErrUnsupportedQASM) {
			t.Fatalf("%q: got %v, want ErrUnsupportedQASM", src, err)
		}
	}
}

func TestEmitRoundTrip(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(Emit(p))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, Emit(p))
	}
	if len(p2.Gates) != len(p.Gates) || p2.NQubits != p.NQubits {
		t.Fatal("round trip changed the program")
	}
	for i := range p.Gates {
		if p.Gates[i].Name != p2.Gates[i].Name {
			t.Fatalf("gate %d: %s vs %s", i, p.Gates[i].Name, p2.Gates[i].Name)
		}
	}
}

func TestCommentsStripped(t *testing.T) {
	p, err := Parse("qreg q[1]; // trailing\n// full line\nh q[0]; // done")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Gates) != 1 {
		t.Fatalf("gate count %d", len(p.Gates))
	}
}

func TestEmitContainsHeader(t *testing.T) {
	p := &Program{NQubits: 2, Gates: []Gate{{Name: "h", Qubits: []int{0}, CBit: -1}}}
	out := Emit(p)
	if !strings.Contains(out, "OPENQASM 2.0") || !strings.Contains(out, "qreg q[2]") {
		t.Fatalf("emit output malformed:\n%s", out)
	}
}

func TestQuickRandomProgramRoundTrip(t *testing.T) {
	gates1q := []string{"h", "x", "y", "z", "s", "t"}
	f := func(seedBytes [12]uint8) bool {
		p := &Program{NQubits: 4, NClbits: 4}
		for i, b := range seedBytes {
			switch b % 4 {
			case 0:
				p.Gates = append(p.Gates, Gate{Name: gates1q[int(b/4)%len(gates1q)], Qubits: []int{int(b) % 4}, CBit: -1})
			case 1:
				a := int(b) % 4
				p.Gates = append(p.Gates, Gate{Name: "cz", Qubits: []int{a, (a + 1) % 4}, CBit: -1})
			case 2:
				p.Gates = append(p.Gates, Gate{Name: "rz", Qubits: []int{int(b) % 4}, Params: []float64{float64(i) * 0.17}, CBit: -1})
			case 3:
				p.Gates = append(p.Gates, Gate{Name: "measure", Qubits: []int{int(b) % 4}, CBit: int(b) % 4})
			}
		}
		p2, err := Parse(Emit(p))
		if err != nil || len(p2.Gates) != len(p.Gates) || p2.NQubits != p.NQubits {
			return false
		}
		for i := range p.Gates {
			if p.Gates[i].Name != p2.Gates[i].Name || len(p.Gates[i].Qubits) != len(p2.Gates[i].Qubits) {
				return false
			}
			for j := range p.Gates[i].Qubits {
				if p.Gates[i].Qubits[j] != p2.Gates[i].Qubits[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
