package ham

import (
	"math"
	"math/cmplx"
	"testing"

	"qisim/internal/cmath"
)

func TestEvolveConstantHamiltonian(t *testing.T) {
	// H = (Ω/2)·X drives a Rabi rotation: U(T) = Rx(ΩT).
	omega := 2 * math.Pi * 10e6
	h := func(t float64) *cmath.Matrix {
		return cmath.Scale(complex(omega/2, 0), cmath.PauliX())
	}
	total := 25e-9
	u := Evolve(h, total, total/200)
	want := cmath.Rx(omega * total)
	if e := cmath.GateError(want, u); e > 1e-8 {
		t.Fatalf("constant-H evolution error %g", e)
	}
}

func TestEvolveUnitarity(t *testing.T) {
	h := func(t float64) *cmath.Matrix {
		m := cmath.Scale(complex(math.Sin(t*1e9)*1e8, 0), cmath.PauliX())
		cmath.AddInPlace(m, complex(math.Cos(t*1e9)*1e8, 0), cmath.PauliZ())
		return m
	}
	u := Evolve(h, 50e-9, 0.1e-9)
	if !cmath.IsUnitary(u, 1e-8) {
		t.Fatal("evolution must be unitary")
	}
}

func TestDrivenTransmonPiPulse(t *testing.T) {
	// Resonant square pulse with area π must flip the qubit (ideal 2-level).
	d := NewDrivenTransmon(2, 0, 0, 0)
	gate := 25e-9
	rabi := RabiForRotation(math.Pi, gate) // square envelope: area = T
	d.RabiRad = rabi
	h := func(t float64) *cmath.Matrix { return d.Hamiltonian(1, 0) }
	u := Evolve(h, gate, gate/500)
	// |0> → |1> up to phase.
	v := u.ApplyTo(cmath.BasisVec(2, 0))
	if p := cmplx.Abs(v[1]); math.Abs(p-1) > 1e-6 {
		t.Fatalf("π pulse |1> population = %v, want 1", p*p)
	}
}

func TestDrivenTransmonLeakage(t *testing.T) {
	// On a 3-level transmon, a fast pulse leaks more than a slow one.
	leak := func(gate float64) float64 {
		alpha := -2 * math.Pi * 330e6
		d := NewDrivenTransmon(3, 0, alpha, RabiForRotation(math.Pi, gate/2)) // cosine env area = T/2
		env := func(t float64) float64 { return 0.5 * (1 - math.Cos(2*math.Pi*t/gate)) }
		h := func(t float64) *cmath.Matrix { return d.Hamiltonian(env(t), 0) }
		u := Evolve(h, gate, gate/400)
		v := u.ApplyTo(cmath.BasisVec(3, 0))
		return real(v[2])*real(v[2]) + imag(v[2])*imag(v[2])
	}
	fast, slow := leak(5e-9), leak(50e-9)
	if fast <= slow {
		t.Fatalf("faster gate should leak more: fast=%g slow=%g", fast, slow)
	}
	if slow > 1e-3 {
		t.Fatalf("slow-gate leakage %g implausibly high", slow)
	}
}

func TestDrivenTransmonQPhaseAxis(t *testing.T) {
	// Driving on Q instead of I rotates about Y instead of X.
	d := NewDrivenTransmon(2, 0, 0, RabiForRotation(math.Pi/2, 25e-9))
	h := func(t float64) *cmath.Matrix { return d.Hamiltonian(0, 1) }
	u := Evolve(h, 25e-9, 25e-9/400)
	if e := cmath.GateError(cmath.Ry(math.Pi/2), u); e > 1e-7 {
		t.Fatalf("Q drive should give Ry, error %g", e)
	}
}

func TestCoupledTransmonsCZResonance(t *testing.T) {
	// At δ = -α1, holding for CZHoldTime returns |11> with a -1 phase
	// (conditional phase π): the textbook CZ.
	alpha := -2 * math.Pi * 300e6
	g := 2 * math.Pi * 20e6
	c := NewCoupledTransmons(3, alpha, alpha, g, 2*math.Pi*800e6)
	hold := c.CZHoldTime()
	h := func(t float64) *cmath.Matrix { return c.Hamiltonian(c.ResonanceDetuning()) }
	u := Evolve(h, hold, hold/2000)
	u4 := cmath.QubitSubspace2(u, 3)
	u4 = StripSingleQubitPhases(u4)
	// A sudden (unramped) resonance hold leaves ~(g/Δ)² residual exchange in
	// the single-excitation manifold, so expect ~1e-2, not an ideal gate; the
	// gateerror package's calibrated ramped pulse drives this much lower.
	if e := cmath.GateError(IdealCZ(), u4); e > 2e-2 {
		t.Fatalf("resonant hold should approximate CZ, error %g", e)
	}
	// The conditional phase on |11> must be π (the entangling part is right).
	condPhase := math.Atan2(imag(u4.At(3, 3)), real(u4.At(3, 3)))
	if math.Abs(math.Abs(condPhase)-math.Pi) > 0.1 {
		t.Fatalf("conditional phase %v, want ±π", condPhase)
	}
}

func TestCZHoldTimeScale(t *testing.T) {
	g := 2 * math.Pi * 20e6
	c := NewCoupledTransmons(3, -2*math.Pi*300e6, -2*math.Pi*300e6, g, 0)
	// π/(√2 g) with g = 2π·20MHz → ~17.7 ns.
	want := math.Pi / (math.Sqrt2 * g)
	if math.Abs(c.CZHoldTime()-want) > 1e-15 {
		t.Fatal("CZHoldTime formula changed")
	}
	if c.CZHoldTime() < 10e-9 || c.CZHoldTime() > 30e-9 {
		t.Fatalf("hold time %v ns outside plausible range", c.CZHoldTime()*1e9)
	}
}

func TestStripSingleQubitPhases(t *testing.T) {
	// Rz⊗Rz·CZ must strip back to CZ exactly.
	rz := cmath.Kron(cmath.Rz(0.3), cmath.Rz(-0.7))
	u := cmath.Mul(rz, cmath.CZ())
	got := StripSingleQubitPhases(u)
	if e := cmath.GateError(cmath.CZ(), got); e > 1e-10 {
		t.Fatalf("phase stripping failed, error %g", e)
	}
}

func TestDispersiveResonatorSteadyState(t *testing.T) {
	r := DispersiveResonator{DetuningRad: 0, ChiRad: 2 * math.Pi * 1.5e6, KappaRad: 2 * math.Pi * 2.7e6}
	eps := 1e7
	// Trajectory converges to the closed-form steady state.
	n := 4000
	dt := 1e-9
	traj := r.Trajectory(+1, func(float64) float64 { return eps }, n, dt)
	ss := r.SteadyState(+1, eps)
	if cmplx.Abs(traj[n-1]-ss) > 1e-3*cmplx.Abs(ss) {
		t.Fatalf("trajectory end %v != steady state %v", traj[n-1], ss)
	}
}

func TestDispersiveStatesSeparate(t *testing.T) {
	// The two qubit states pull the resonator oppositely; their steady states
	// must be distinguishable (that is the whole point of readout).
	r := DispersiveResonator{DetuningRad: 0, ChiRad: 2 * math.Pi * 1.5e6, KappaRad: 2 * math.Pi * 2.7e6}
	s0 := r.SteadyState(-1, 1e7)
	s1 := r.SteadyState(+1, 1e7)
	sep := cmplx.Abs(s0 - s1)
	if sep < 0.5*cmplx.Abs(s0) {
		t.Fatalf("state separation %v too small vs amplitude %v", sep, cmplx.Abs(s0))
	}
}

func TestDispersiveRingUp(t *testing.T) {
	// Amplitude grows monotonically toward steady state on resonance.
	r := DispersiveResonator{ChiRad: 2 * math.Pi * 1.5e6, KappaRad: 2 * math.Pi * 2.7e6}
	traj := r.Trajectory(+1, func(float64) float64 { return 1e7 }, 300, 1e-9)
	for k := 1; k < len(traj); k++ {
		if cmplx.Abs(traj[k]) < cmplx.Abs(traj[k-1])-1e-9 {
			// allow tiny oscillation from the chi detuning
			if cmplx.Abs(traj[k]) < 0.95*cmplx.Abs(traj[k-1]) {
				t.Fatalf("ring-up not monotonic at step %d", k)
			}
		}
	}
}

func TestEvolveSamplesMatchesEvolve(t *testing.T) {
	d := NewDrivenTransmon(2, 0, 0, 2*math.Pi*5e6)
	n := 100
	dt := 0.25e-9
	hs := make([]*cmath.Matrix, n)
	for k := range hs {
		hs[k] = d.Hamiltonian(1, 0)
	}
	u1 := EvolveSamples(hs, dt)
	u2 := Evolve(func(float64) *cmath.Matrix { return d.Hamiltonian(1, 0) }, float64(n)*dt, dt)
	if e := cmath.GateError(u1, u2); e > 1e-10 {
		t.Fatalf("sample-based and functional evolution disagree: %g", e)
	}
}

// TestEvolveSamplesIntoMatchesEvolveSamples pins the workspace path, which
// reuses a repeated sample's propagator and skips zero Taylor terms, to the
// allocating reference element by element (==), through one workspace.
func TestEvolveSamplesIntoMatchesEvolveSamples(t *testing.T) {
	const ts = 0.4e-9
	alpha := 2 * math.Pi * -300e6
	c := NewCoupledTransmons(3, alpha, alpha, 2*math.Pi*10e6, 2*math.Pi*800e6)
	d := NewDrivenTransmon(3, 2*math.Pi*1e6, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	drive := func(amps ...float64) []*cmath.Matrix {
		hs := make([]*cmath.Matrix, len(amps))
		for k, a := range amps {
			hs[k] = d.Hamiltonian(a, 0.1*a)
		}
		return hs
	}
	var flux []*cmath.Matrix
	for _, f := range []float64{0, 0.4, 1, 1, 1, 1, 0.4, 0, 0} {
		flux = append(flux, c.Hamiltonian(c.IdleDetuningRad+(c.ResonanceDetuning()-c.IdleDetuningRad)*f))
	}
	// Neighbours that differ only in the sign of a zero entry (no direct
	// 0↔2 drive term) are different inputs, so neither reuses the other's
	// propagator.
	h := d.Hamiltonian(0.7, 0.1)
	negZero := h.Clone()
	negZero.Set(0, 2, complex(math.Copysign(0, -1), math.Copysign(0, -1)))
	negRe := h.Clone()
	negRe.Set(2, 0, complex(math.Copysign(0, -1), 0))

	var w EvolveWorkspace
	for _, tc := range []struct {
		name string
		hs   []*cmath.Matrix
	}{
		{"flat-top flux pulse", flux},
		{"drive plateaus", drive(0, 0.5, 1, 1, 1, 0.5, 0.5, 0)},
		{"signed-zero neighbours", []*cmath.Matrix{h, negZero, h, negRe, negRe, negZero}},
	} {
		want := EvolveSamples(tc.hs, ts)
		got := cmath.NewMatrix(want.Rows, want.Cols)
		w.EvolveSamplesInto(got, tc.hs, ts)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", tc.name, i, got.Data[i], v)
			}
		}
	}

	// A NaN drive sample, repeated so the reuse path sees NaN bits too,
	// must still give a non-finite propagator.
	nan := drive(0.5, 1, math.NaN(), math.NaN(), 1, 0.5)
	got := cmath.NewMatrix(3, 3)
	w.EvolveSamplesInto(got, nan, ts)
	if cmath.CheckFinite("workspace", got) == nil {
		t.Fatalf("NaN sample gave a finite workspace propagator:\n%v", got)
	}
	if cmath.CheckFinite("reference", EvolveSamples(nan, ts)) == nil {
		t.Fatal("NaN sample gave a finite reference propagator")
	}
}
