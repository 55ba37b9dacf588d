package qasm_test

import (
	"strings"
	"testing"

	"qisim/internal/qasm"
	"qisim/internal/workloads"
)

// FuzzParse enforces the qasm boundary contract: no input — well-formed,
// malformed, or adversarial — may make Parse panic, and every successfully
// parsed program must pass structural validation (indices in range, arity
// correct, parameters finite). The seed corpus is the emitted form of every
// workload generator plus hand-picked edge cases around the statement
// grammar.
func FuzzParse(f *testing.F) {
	// Real programs: every benchmark generator at a couple of sizes.
	for _, name := range workloads.Names() {
		for _, n := range []int{4, 9} {
			p, err := workloads.Generate(name, n)
			if err != nil {
				f.Fatalf("seed corpus %s(%d): %v", name, n, err)
			}
			f.Add(qasm.Emit(p))
		}
	}
	// Grammar edge cases.
	for _, s := range []string{
		"",
		"OPENQASM 2.0;",
		"qreg q[0];",
		"qreg q[-3];",
		"qreg q[2]; h q[2];",
		"qreg q[2]; cx q[0], q[0];",
		"qreg q[2]; rz(pi/2) q[0];",
		"qreg q[2]; rz(-3*pi/4) q[1];",
		"qreg q[2]; rz() q[0];",
		"qreg q[2]; rz(pi q[0];",
		"qreg q[1]; creg c[1]; measure q[0] -> c[0];",
		"qreg q[1]; measure q[0] -> ;",
		"qreg q[1]; barrier q;",
		"// comment only",
		"qreg q[1]; h q[0]; h q[99999999999999999999];",
		"qreg q[1]; unknown_gate q[0];",
		"qreg \x00[1];",
		strings.Repeat("qreg q[1];", 50),
		// Non-finite parameters must be rejected by Parse itself.
		"qreg q[7]; x(.1/0) q[0];",
		"qreg q[1]; rz(0/0) q[0];",
		"qreg q[1]; rz(nan) q[0];",
		"qreg q[1]; rz(inf) q[0];",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := qasm.Parse(src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Parse accepted a structurally invalid program: %v\nsource:\n%s", verr, src)
		}
		// Emit must render anything Parse accepts, and the round trip must
		// parse again (Emit output is in the supported subset by design).
		if _, rerr := qasm.Parse(qasm.Emit(p)); rerr != nil {
			t.Fatalf("round trip failed: %v\nsource:\n%s", rerr, src)
		}
	})
}
