package pauli

import (
	"math"
	"testing"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/qasm"
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

// TestESPMatchesHandBuiltProduct: on a GHZ-4 circuit whose spectators
// idle while the CX chain runs, ESP equals the product built by hand from
// the lowered gate counts, ∏(1−p_op)·(1−p_idle)^Σ⌊idle_q/period⌋. A shot
// sampler drawing each of those events once has this as its mean, so the
// product is what any such estimator converges to.
func TestESPMatchesHandBuiltProduct(t *testing.T) {
	res := simulate(t, `qreg q[4]; creg c[4];
h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];
measure q[0]->c[0]; measure q[1]->c[1]; measure q[2]->c[2]; measure q[3]->c[3];`)
	r := ibmishRates()
	cfg := DefaultConfig(r)
	// h, and two Hadamards around each of the three CZs a cx lowers to.
	const oneQ, twoQ, measures = 1 + 2*3, 3, 4
	idle := 0
	for q := 0; q < 4; q++ {
		idle += int(res.IdleTime(q) / cfg.DecoherencePeriod)
	}
	if idle == 0 {
		t.Fatal("no qubit idles for a full injection period; the idle factor goes untested")
	}
	want := math.Pow(1-r.OneQ, oneQ) * math.Pow(1-r.TwoQ, twoQ) * math.Pow(1-r.Readout, measures) *
		math.Pow(1-r.DecoherenceError(cfg.DecoherencePeriod), float64(idle))
	if got := ESP(res, cfg); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("ESP %.17g, hand-built product %.17g (%d idle periods)", got, want, idle)
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
