package pauli

import (
	"context"
	"math"
	"testing"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/qasm"
	"qisim/internal/simrun"
)

func simulate(t *testing.T, src string) *cyclesim.Result {
	t.Helper()
	p, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := compile.Compile(p, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := cyclesim.Run(ex, cyclesim.CMOSConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// monteCarlo runs the Pauli-event MC to completion and returns its fidelity.
func monteCarlo(t *testing.T, res *cyclesim.Result, cfg Config) float64 {
	t.Helper()
	mc, err := MonteCarloCtx(context.Background(), res, cfg, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mc.Fidelity
}

func ibmishRates() ErrorRates {
	return ErrorRates{OneQ: 3e-4, TwoQ: 8e-3, Readout: 1.5e-2, T1: 120e-6, T2: 100e-6}
}

func TestESPSimpleCircuit(t *testing.T) {
	res := simulate(t, "qreg q[1]; creg c[1]; h q[0]; measure q[0]->c[0];")
	cfg := DefaultConfig(ibmishRates())
	esp := ESP(res, cfg)
	want := (1 - 3e-4) * (1 - 1.5e-2)
	if math.Abs(esp-want) > 1e-6 {
		t.Fatalf("ESP %v, want %v", esp, want)
	}
}

func TestESPDecreasesWithDepth(t *testing.T) {
	shallow := simulate(t, "qreg q[2]; creg c[2]; cz q[0],q[1]; measure q[0]->c[0];")
	deep := simulate(t, "qreg q[2]; creg c[2]; cz q[0],q[1]; cz q[0],q[1]; cz q[0],q[1]; measure q[0]->c[0];")
	cfg := DefaultConfig(ibmishRates())
	if ESP(deep, cfg) >= ESP(shallow, cfg) {
		t.Fatal("deeper circuits must have lower fidelity")
	}
}

func TestVirtualRzIsFree(t *testing.T) {
	a := simulate(t, "qreg q[1]; h q[0];")
	b := simulate(t, "qreg q[1]; rz(0.5) q[0]; h q[0];")
	cfg := DefaultConfig(ibmishRates())
	if math.Abs(ESP(a, cfg)-ESP(b, cfg)) > 1e-12 {
		t.Fatal("virtual Rz must not cost fidelity")
	}
}

func TestDecoherenceErrorLimits(t *testing.T) {
	r := ibmishRates()
	if r.DecoherenceError(0) != 0 {
		t.Fatal("zero idle → zero decoherence")
	}
	p1 := r.DecoherenceError(100e-9)
	p2 := r.DecoherenceError(1e-6)
	if !(p2 > p1 && p1 > 0) {
		t.Fatal("decoherence error must grow with idle time")
	}
	if pInf := r.DecoherenceError(1); math.Abs(pInf-0.5) > 1e-3 {
		t.Fatalf("fully decohered error = %v, want 0.5", pInf)
	}
}

func TestIdleQubitsDecohere(t *testing.T) {
	// Same workload but one extra spectator qubit that idles: fidelity must
	// drop when the spectator is entangled into the timing (identity
	// injection covers all qubits).
	busy := simulate(t, "qreg q[2]; creg c[2]; h q[0]; h q[0]; h q[0]; h q[0]; h q[0]; h q[1];")
	cfg := DefaultConfig(ibmishRates())
	cfg.Rates.OneQ = 0 // isolate decoherence
	esp := ESP(busy, cfg)
	if esp >= 1 {
		t.Fatal("idle spectator should decohere")
	}
}

func TestMonteCarloAgreesWithESP(t *testing.T) {
	res := simulate(t, `qreg q[4]; creg c[4];
h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];
measure q[0]->c[0]; measure q[1]->c[1]; measure q[2]->c[2]; measure q[3]->c[3];`)
	cfg := DefaultConfig(ibmishRates())
	cfg.Shots = 60000
	esp := ESP(res, cfg)
	mc := monteCarlo(t, res, cfg)
	if math.Abs(esp-mc) > 0.01 {
		t.Fatalf("MC %v vs ESP %v disagree beyond MC noise", mc, esp)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	res := simulate(t, "qreg q[1]; creg c[1]; h q[0]; measure q[0]->c[0];")
	cfg := DefaultConfig(ibmishRates())
	cfg.Shots = 5000
	if monteCarlo(t, res, cfg) != monteCarlo(t, res, cfg) {
		t.Fatal("seeded MC must be deterministic")
	}
}

func TestESPInUnitInterval(t *testing.T) {
	res := simulate(t, "qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; measure q[2]->c[2];")
	for _, scale := range []float64{0.1, 1, 10} {
		r := ibmishRates()
		r.OneQ *= scale
		r.TwoQ *= scale
		esp := ESP(res, DefaultConfig(r))
		if esp < 0 || esp > 1 {
			t.Fatalf("ESP %v out of range at scale %v", esp, scale)
		}
	}
}
