// Package ham builds the Hamiltonians of QIsim's gate- and readout-error
// models and evolves them in time. All Hamiltonians are expressed in angular
// frequency units (rad/s) so that the propagator of a constant slice of
// duration dt is exp(-i·H·dt).
//
// Three physical systems are covered:
//
//   - a single driven transmon, truncated to Levels levels, in the frame
//     rotating at the drive frequency (CMOS/SFQ single-qubit gates),
//   - two coupled flux-tunable transmons with a time-dependent detuning
//     (the CZ gate of both CMOS and SFQ pulse circuits), and
//   - a dispersively coupled qubit–resonator pair treated semi-classically
//     (CMOS dispersive readout and SFQ resonator driving).
package ham

import (
	"math"

	"qisim/internal/cmath"
)

// TimeDependent is a Hamiltonian H(t) in rad/s.
type TimeDependent func(t float64) *cmath.Matrix

// Evolve integrates U(T) = T·exp(-i ∫ H dt) with piecewise-constant steps of
// size dt, evaluating H at the midpoint of each step (midpoint rule keeps the
// error O(dt²) per step for smooth drives).
func Evolve(h TimeDependent, total, dt float64) *cmath.Matrix {
	steps := int(math.Ceil(total / dt))
	if steps < 1 {
		steps = 1
	}
	dt = total / float64(steps)
	var u *cmath.Matrix
	for k := 0; k < steps; k++ {
		t := (float64(k) + 0.5) * dt
		hk := h(t)
		uk := cmath.Expm(cmath.Scale(complex(0, -dt), hk))
		if u == nil {
			u = uk
		} else {
			u = cmath.Mul(uk, u)
		}
	}
	return u
}

// EvolveSamples evolves under a piecewise-constant Hamiltonian defined by one
// matrix per digital sample of duration ts each.
func EvolveSamples(hs []*cmath.Matrix, ts float64) *cmath.Matrix {
	if len(hs) == 0 {
		panic("ham: EvolveSamples requires at least one sample")
	}
	u := cmath.Identity(hs[0].Rows)
	for _, hk := range hs {
		uk := cmath.Expm(cmath.Scale(complex(0, -ts), hk))
		u = cmath.Mul(uk, u)
	}
	return u
}

// EvolveWorkspace holds the scratch matrices repeated sample-evolutions
// need, so calibration searches (which re-run EvolveSamples hundreds of
// times on same-sized systems) allocate nothing after warm-up. The zero
// value is ready to use. EvolveSamplesInto skips only work whose result is
// known (a repeated sample's exponential, exact-zero Taylor terms), so for
// finite samples its results are bit-identical to EvolveSamples.
type EvolveWorkspace struct {
	gen, uk, u, tmp *cmath.Matrix
	hs              []*cmath.Matrix
	expw            cmath.ExpmWorkspace
}

func (w *EvolveWorkspace) ensure(n int) {
	if w.gen == nil || w.gen.Rows != n {
		w.gen = cmath.NewMatrix(n, n)
		w.uk = cmath.NewMatrix(n, n)
		w.u = cmath.NewMatrix(n, n)
		w.tmp = cmath.NewMatrix(n, n)
	}
}

// HamiltonianBuffer returns n reusable dim×dim sample slots owned by the
// workspace, for callers that rebuild per-sample Hamiltonians in place with
// the *Into variants each evolution.
func (w *EvolveWorkspace) HamiltonianBuffer(n, dim int) []*cmath.Matrix {
	if len(w.hs) != n || (n > 0 && w.hs[0].Rows != dim) {
		w.hs = make([]*cmath.Matrix, n)
		for i := range w.hs {
			w.hs[i] = cmath.NewMatrix(dim, dim)
		}
	}
	return w.hs
}

// EvolveSamplesInto computes the same propagator as EvolveSamples into dst,
// reusing the workspace's scratch. A sample bitwise equal to the one before
// it reuses that sample's propagator, since equal inputs give equal outputs:
// flat-top holds, unit steps and quantised plateaus are runs of equal
// samples. dst must not be one of the hs samples.
func (w *EvolveWorkspace) EvolveSamplesInto(dst *cmath.Matrix, hs []*cmath.Matrix, ts float64) {
	if len(hs) == 0 {
		panic("ham: EvolveSamples requires at least one sample")
	}
	n := hs[0].Rows
	w.ensure(n)
	u, tmp := w.u, w.tmp
	for i := range u.Data {
		u.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		u.Data[i*n+i] = 1
	}
	s := complex(0, -ts)
	for k, hk := range hs {
		if k == 0 || !sameBits(hk, hs[k-1]) {
			for i, v := range hk.Data {
				w.gen.Data[i] = s * v
			}
			w.expw.ExpmInto(w.uk, w.gen)
		}
		cmath.MulInto(tmp, w.uk, u)
		u, tmp = tmp, u
	}
	copy(dst.Data, u.Data)
}

// sameBits reports whether a and b hold bitwise-equal entries. Unlike ==, it
// tells +0 from −0 and matches a NaN with itself: equal bits are exactly the
// inputs a deterministic computation must map to equal outputs.
func sameBits(a, b *cmath.Matrix) bool {
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// DrivenTransmon models one transmon driven through its charge line, in the
// frame rotating at the drive frequency.
type DrivenTransmon struct {
	// Levels is the truncation of the transmon ladder (3 captures leakage).
	Levels int
	// DetuningRad is ω_q - ω_d in rad/s (0 for resonant drive).
	DetuningRad float64
	// AnharmonicityRad is the angular anharmonicity α (negative).
	AnharmonicityRad float64
	// RabiRad is the peak Rabi rate Ω in rad/s for unit envelope amplitude.
	RabiRad float64

	n, x, y *cmath.Matrix // cached operators
}

// NewDrivenTransmon builds the model and caches its operators.
func NewDrivenTransmon(levels int, detuningRad, anharmRad, rabiRad float64) *DrivenTransmon {
	d := &DrivenTransmon{
		Levels:           levels,
		DetuningRad:      detuningRad,
		AnharmonicityRad: anharmRad,
		RabiRad:          rabiRad,
	}
	a := cmath.Destroy(levels)
	ad := cmath.Create(levels)
	d.n = cmath.Mul(ad, a)
	d.x = cmath.Add(a, ad)                  // a + a†
	d.y = cmath.Scale(1i, cmath.Sub(ad, a)) // i(a† - a)
	return d
}

// Hamiltonian returns H for instantaneous I/Q drive amplitudes (unit scale):
//
//	H = Δ·n + (α/2)·n(n-1) + (Ω/2)·(I·(a+a†) + Q·i(a†-a))
func (d *DrivenTransmon) Hamiltonian(i, q float64) *cmath.Matrix {
	h := cmath.NewMatrix(d.Levels, d.Levels)
	d.HamiltonianInto(h, i, q)
	return h
}

// HamiltonianInto writes Hamiltonian(i, q) into h, which must be
// Levels×Levels. Results are bit-identical to Hamiltonian.
func (d *DrivenTransmon) HamiltonianInto(h *cmath.Matrix, i, q float64) {
	for idx := range h.Data {
		h.Data[idx] = 0
	}
	for k := 0; k < d.Levels; k++ {
		fk := float64(k)
		diag := d.DetuningRad*fk + d.AnharmonicityRad/2*fk*(fk-1)
		h.Set(k, k, complex(diag, 0))
	}
	cmath.AddInPlace(h, complex(d.RabiRad*i/2, 0), d.x)
	cmath.AddInPlace(h, complex(d.RabiRad*q/2, 0), d.y)
}

// RabiForRotation returns the peak Rabi rate (rad/s) that makes a pulse with
// the given envelope area (∫env dt over the gate, in seconds) produce a
// rotation of angle theta in the two-level subspace: Ω_peak = θ / area.
func RabiForRotation(theta, envelopeArea float64) float64 {
	return theta / envelopeArea
}

// CoupledTransmons models two flux-tunable transmons with exchange coupling g
// for the CZ gate. Qubit 1's frequency is pulsed; the model works in the
// frame rotating at each qubit's idle frequency, so the flux pulse appears as
// a time-dependent detuning δ(t) on qubit 1.
type CoupledTransmons struct {
	Levels     int     // per transmon
	Anharm1Rad float64 // α1 (the pulsed qubit)
	Anharm2Rad float64
	GRad       float64 // exchange coupling g in rad/s
	// IdleDetuningRad is qubit 1's idle detuning from qubit 2 (ω1-ω2 at zero
	// flux), which determines how far the pulse must travel to reach the
	// |11>↔|20> resonance at δ = -α1.
	IdleDetuningRad float64

	hStatic *cmath.Matrix
	n1      *cmath.Matrix
}

// NewCoupledTransmons builds the two-transmon model.
func NewCoupledTransmons(levels int, anharm1, anharm2, g, idleDetuning float64) *CoupledTransmons {
	c := &CoupledTransmons{
		Levels:          levels,
		Anharm1Rad:      anharm1,
		Anharm2Rad:      anharm2,
		GRad:            g,
		IdleDetuningRad: idleDetuning,
	}
	d := levels
	id := cmath.Identity(d)
	a := cmath.Destroy(d)
	ad := cmath.Create(d)
	n := cmath.Mul(ad, a)

	c.n1 = cmath.Kron(n, id)
	n2 := cmath.Kron(id, n)

	// Anharmonic terms (α/2)·n(n-1) for both transmons.
	anh := func(alpha float64, nOp *cmath.Matrix) *cmath.Matrix {
		nn := cmath.Mul(nOp, nOp)
		return cmath.Scale(complex(alpha/2, 0), cmath.Sub(nn, nOp))
	}
	h := cmath.Add(anh(anharm1, c.n1), anh(anharm2, n2))

	// Exchange coupling g(a1†a2 + a1a2†).
	coup := cmath.Add(cmath.Kron(ad, a), cmath.Kron(a, ad))
	cmath.AddInPlace(h, complex(g, 0), coup)
	c.hStatic = h
	return c
}

// ResonanceDetuning returns the qubit-1 detuning at which |11> and |20> are
// degenerate: δ = -α1.
func (c *CoupledTransmons) ResonanceDetuning() float64 { return -c.Anharm1Rad }

// CZHoldTime returns the |11>↔|20> half-oscillation time π/(√2·2g)... the
// coupling matrix element between |11> and |20> is √2·g, so a full 2π phase
// return takes t = 2π/(2·√2·g) = π/(√2·g).
func (c *CoupledTransmons) CZHoldTime() float64 {
	return math.Pi / (math.Sqrt2 * c.GRad)
}

// Hamiltonian returns H for a given instantaneous qubit-1 detuning δ(t)
// (rad/s relative to qubit 2).
func (c *CoupledTransmons) Hamiltonian(delta float64) *cmath.Matrix {
	h := c.hStatic.Clone()
	cmath.AddInPlace(h, complex(delta, 0), c.n1)
	return h
}

// HamiltonianInto writes Hamiltonian(delta) into h, which must match
// hStatic's shape. Results are bit-identical to Hamiltonian.
func (c *CoupledTransmons) HamiltonianInto(h *cmath.Matrix, delta float64) {
	copy(h.Data, c.hStatic.Data)
	cmath.AddInPlace(h, complex(delta, 0), c.n1)
}

// IdealCZ returns the target two-qubit unitary in the computational basis,
// with single-qubit phases removed (the QCI tracks those in software via
// virtual Rz).
func IdealCZ() *cmath.Matrix { return cmath.CZ() }

// StripSingleQubitPhases removes the single-qubit Z phases from a 4x4
// two-qubit diagonal-dominant unitary, returning the entangling part. This
// mirrors the standard CZ calibration convention: phases on |01> and |10> are
// absorbed into virtual Rz, leaving the conditional phase on |11>.
func StripSingleQubitPhases(u *cmath.Matrix) *cmath.Matrix {
	if u.Rows != 4 || u.Cols != 4 {
		panic("ham: StripSingleQubitPhases requires a 4x4 matrix")
	}
	phase := func(v complex128) float64 { return math.Atan2(imag(v), real(v)) }
	p00 := phase(u.At(0, 0))
	p01 := phase(u.At(1, 1)) - p00
	p10 := phase(u.At(2, 2)) - p00
	corr := cmath.NewMatrix(4, 4)
	ph := []float64{-p00, -p00 - p01, -p00 - p10, -p00 - p01 - p10}
	for k := 0; k < 4; k++ {
		corr.Set(k, k, complex(math.Cos(ph[k]), math.Sin(ph[k])))
	}
	return cmath.Mul(corr, u)
}

// DispersiveResonator is the semi-classical cavity model used by the readout
// error models: a driven, damped oscillator whose frequency is pulled by ±χ
// depending on the qubit state. The coherent-state amplitude α(t) obeys
//
//	dα/dt = -i(Δr ± χ)·α - (κ/2)·α - i·ε(t)
type DispersiveResonator struct {
	DetuningRad float64 // resonator-drive detuning Δr (rad/s)
	ChiRad      float64 // dispersive shift χ (rad/s)
	KappaRad    float64 // linewidth κ (rad/s)
}

// Trajectory integrates α(t) over n steps of dt for the given qubit state
// (+1 → qubit |1>, -1 → qubit |0>) and drive amplitude ε(t) (rad/s), using
// the exact per-step solution of the linear ODE with constant drive.
func (r DispersiveResonator) Trajectory(qubitSign float64, eps func(t float64) float64, n int, dt float64) []complex128 {
	out := make([]complex128, n)
	lam := complex(-r.KappaRad/2, -(r.DetuningRad + qubitSign*r.ChiRad))
	var alpha complex128
	for k := 0; k < n; k++ {
		t := float64(k) * dt
		e := complex(0, -eps(t))
		// α(t+dt) = e^{λ dt}α + (e^{λ dt}-1)/λ · (-iε)
		eld := cexp(lam * complex(dt, 0))
		if lam != 0 {
			alpha = eld*alpha + (eld-1)/lam*e
		} else {
			alpha += e * complex(dt, 0)
		}
		out[k] = alpha
	}
	return out
}

// SteadyState returns the steady-state amplitude for constant drive eps.
func (r DispersiveResonator) SteadyState(qubitSign, eps float64) complex128 {
	lam := complex(-r.KappaRad/2, -(r.DetuningRad + qubitSign*r.ChiRad))
	return complex(0, -eps) / (-lam)
}

func cexp(z complex128) complex128 {
	e := math.Exp(real(z))
	return complex(e*math.Cos(imag(z)), e*math.Sin(imag(z)))
}
