package gateerror

import (
	"math"
	"math/rand"

	"qisim/internal/cmath"
	"qisim/internal/ham"
	"qisim/internal/pulse"
)

// CZConfig configures the two-qubit (CZ) gate-error model shared by the CMOS
// and SFQ pulse circuits. The flux pulse detunes qubit 1 to the |11>↔|20>
// resonance; the envelope shape is the paper's central design question (the
// unit-step Horse Ridge II shape "almost cannot realize the CZ gate").
type CZConfig struct {
	// GateTime is the total pulse duration (Table 2: 50 ns).
	GateTime float64
	// SampleRateHz is the pulse DAC sample rate.
	SampleRateHz float64
	// Envelope is the pulse shape (FlatTopEnvelope or UnitStepEnvelope).
	Envelope pulse.Envelope
	// Bits quantises the pulse amplitude samples (0 = ideal).
	Bits int
	// NoiseSigma is the relative RMS thermal-noise amplitude on the flux
	// pulse (0 disables).
	NoiseSigma float64
	// AnharmonicityHz (negative) for both transmons.
	AnharmonicityHz float64
	// CouplingHz is the exchange coupling g.
	CouplingHz float64
	// IdleDetuningHz is qubit 1's idle detuning above qubit 2.
	IdleDetuningHz float64
	// Trials is the number of noise realisations (default 8).
	Trials int
	// Seed fixes the RNG.
	Seed int64
}

// DefaultCZConfig returns the Table 2 CZ setup: 50 ns flat-top pulse whose
// resonant hold (~35 ns at g = 2π·10 MHz) plus raised-cosine ramps fill the
// gate window.
func DefaultCZConfig() CZConfig {
	return CZConfig{
		GateTime:        50e-9,
		SampleRateHz:    2.5e9,
		Envelope:        pulse.FlatTopEnvelope{RampFrac: 0.14},
		Bits:            14,
		NoiseSigma:      6.7e-3,
		AnharmonicityHz: -300e6,
		CouplingHz:      10e6,
		IdleDetuningHz:  800e6,
		Trials:          8,
		Seed:            7,
	}
}

// DefaultSFQCZConfig returns the SFQ pulse-circuit CZ setup: the SFQDC-cell
// DAC resolves fewer amplitude levels than the CMOS DAC (6 bits worth of
// SFQDC cells) and the flux line carries more thermal noise, reproducing the
// Table 2 SFQ 2Q error of ~1.09e-3.
func DefaultSFQCZConfig() CZConfig {
	cfg := DefaultCZConfig()
	cfg.Bits = 6
	cfg.NoiseSigma = 8e-3
	return cfg
}

// CZCalibration is the tune-up of a CZ pulse, found on the clean pulse by
// CalibrateCZ: the scale on the resonance detuning the pulse reaches and,
// for a flat-top envelope, the ramp fraction (0 for other envelopes).
type CZCalibration struct {
	Scale    float64
	RampFrac float64
}

// CZResult reports the CZ model output.
type CZResult struct {
	Error         float64 // mean infidelity over noise trials
	CoherentError float64 // noiseless quantised-pulse infidelity
	CondPhase     float64 // achieved conditional phase (want π)
}

// czModel is the two-transmon system a CZConfig describes, with the scratch
// its evolutions reuse: a calibration re-runs evolve ~130 times on the same
// 9×9 system, so the per-sample Hamiltonians and propagator scratch are
// rebuilt in place per call.
type czModel struct {
	cfg             CZConfig
	n               int
	ts              float64
	idle, resonance float64
	sys             *ham.CoupledTransmons
	ideal           *cmath.Matrix
	ws              ham.EvolveWorkspace
	hs              []*cmath.Matrix
	u9              *cmath.Matrix
}

func newCZModel(cfg CZConfig) *czModel {
	alpha := 2 * math.Pi * cfg.AnharmonicityHz
	g := 2 * math.Pi * cfg.CouplingHz
	idle := 2 * math.Pi * cfg.IdleDetuningHz
	sys := ham.NewCoupledTransmons(3, alpha, alpha, g, idle)

	n := int(math.Round(cfg.GateTime * cfg.SampleRateHz))
	if n < 8 {
		n = 8
	}
	m := &czModel{
		cfg: cfg, n: n, ts: cfg.GateTime / float64(n),
		idle: idle, resonance: sys.ResonanceDetuning(), sys: sys,
		ideal: ham.IdealCZ(),
		u9:    cmath.NewMatrix(9, 9),
	}
	m.hs = m.ws.HamiltonianBuffer(n, 9)
	return m
}

// envelope samples the configured envelope, a flat-top with the given ramp
// fraction.
func (m *czModel) envelope(rampFrac float64) []float64 {
	if _, ok := m.cfg.Envelope.(pulse.FlatTopEnvelope); ok {
		return pulse.Samples(pulse.FlatTopEnvelope{RampFrac: rampFrac}, m.n, m.cfg.GateTime)
	}
	return pulse.Samples(m.cfg.Envelope, m.n, m.cfg.GateTime)
}

// evolve returns the computational-subspace CZ unitary, single-qubit phases
// stripped, of the pulse samples at the given detuning scale.
func (m *czModel) evolve(samples []float64, scale float64) *cmath.Matrix {
	for k := 0; k < m.n; k++ {
		// Envelope interpolates from idle detuning to the (scaled)
		// resonance point.
		delta := m.idle + (m.resonance*scale-m.idle)*samples[k]
		m.sys.HamiltonianInto(m.hs[k], delta)
	}
	m.ws.EvolveSamplesInto(m.u9, m.hs, m.ts)
	u4 := cmath.QubitSubspace2(m.u9, 3)
	return ham.StripSingleQubitPhases(u4)
}

func (m *czModel) score(u4 *cmath.Matrix) float64 { return cmath.GateError(m.ideal, u4) }

// CalibrateCZ tunes the pulse on the clean (unquantised, noiseless) samples:
// the amplitude scale always, and for the flat-top shape also the ramp
// fraction, which trades hold time against adiabaticity. This is the
// two-knob tune-up an experiment performs, and what the paper's Quanlse
// ideal-pulse generation provides. It never reads Bits, NoiseSigma, Trials
// or Seed, so DefaultCZConfig and DefaultSFQCZConfig calibrate alike.
func CalibrateCZ(cfg CZConfig) CZCalibration {
	m := newCZModel(cfg)
	cal := CZCalibration{Scale: 1}
	env := pulse.Samples(cfg.Envelope, m.n, cfg.GateTime)
	if _, tunable := cfg.Envelope.(pulse.FlatTopEnvelope); tunable {
		for iter := 0; iter < 2; iter++ {
			cal.Scale = goldenMin(func(s float64) float64 { return m.score(m.evolve(env, s)) }, 0.92, 1.08, 24)
			cal.RampFrac = goldenMin(func(r float64) float64 {
				return m.score(m.evolve(m.envelope(r), cal.Scale))
			}, 0.04, 0.35, 24)
			env = m.envelope(cal.RampFrac)
		}
	}
	cal.Scale = goldenMin(func(s float64) float64 { return m.score(m.evolve(env, s)) }, 0.92, 1.08, 28)
	return cal
}

// CZError runs the CZ pipeline on a calibrated pulse: ideal pulse →
// quantisation → thermal noise → two-transmon Hamiltonian simulation →
// computational-subspace comparison with the ideal CZ (single-qubit phases
// stripped, as tracked by virtual Rz).
func CZError(cfg CZConfig, cal CZCalibration) CZResult {
	if cfg.Trials <= 0 {
		cfg.Trials = 8
	}
	m := newCZModel(cfg)
	q := pulse.Quantize(m.envelope(cal.RampFrac), cfg.Bits)
	uCoh := m.evolve(q, cal.Scale)
	res := CZResult{CoherentError: m.score(uCoh)}
	res.CondPhase = math.Atan2(imag(uCoh.At(3, 3)), real(uCoh.At(3, 3)))

	if cfg.NoiseSigma <= 0 {
		res.Error = res.CoherentError
		return res
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sum float64
	for trial := 0; trial < cfg.Trials; trial++ {
		noisy := make([]float64, m.n)
		for k := range noisy {
			noisy[k] = q[k] + cfg.NoiseSigma*rng.NormFloat64()
		}
		sum += m.score(m.evolve(noisy, cal.Scale))
	}
	res.Error = sum / float64(cfg.Trials)
	return res
}

// UnitStepCZConfig returns the default CZ setup with the Horse Ridge II-style
// unit-step pulse and no noise. Under the same calibration budget it shows
// the pathology that motivated the paper's new AWG pulse circuits for both
// CMOS (Section 3.3.2) and SFQ (Section 3.4.2).
func UnitStepCZConfig() CZConfig {
	cfg := DefaultCZConfig()
	cfg.Envelope = pulse.UnitStepEnvelope{}
	cfg.NoiseSigma = 0
	return cfg
}
