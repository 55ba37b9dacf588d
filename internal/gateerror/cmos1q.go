// Package gateerror implements QIsim's gate error-rate models (Fig. 7 of the
// paper): CMOS single-qubit gates driven by noisy quantised microwaves, SFQ
// single-qubit gates built from optimised pulse bitstreams, and the CZ
// two-qubit gate realised by flux pulses — all scored with Hamiltonian
// simulation against ideal unitaries, plus the Bloch–Redfield-style
// decoherence extension used for validation against IBMQ references.
package gateerror

import (
	"math"
	"math/rand"

	"qisim/internal/cmath"
	"qisim/internal/ham"
	"qisim/internal/pulse"
)

// CMOS1QConfig configures the CMOS single-qubit gate-error model.
type CMOS1QConfig struct {
	// GateTime is the microwave pulse duration (Table 2: 25 ns).
	GateTime float64
	// SampleRateHz is the digital sample rate of the drive DAC (2.5 GHz).
	SampleRateHz float64
	// Bits is the DAC amplitude precision (Opt-#2 sweeps this; 0 = ideal).
	Bits int
	// SNRdB is the analog chain's signal-to-noise ratio; <=0 disables noise.
	SNRdB float64
	// AnharmonicityHz is the transmon anharmonicity (negative).
	AnharmonicityHz float64
	// Theta is the target rotation angle; Axis 'x' or 'y'.
	Theta float64
	Axis  byte
	// DRAG enables the derivative-removal quadrature correction that
	// suppresses leakage through the |2> state.
	DRAG bool
	// Trials is the number of noise realisations averaged (default 8).
	Trials int
	// Seed fixes the noise RNG for reproducibility.
	Seed int64
}

// DefaultCMOS1QConfig returns the Table 2 setup: 25 ns Xπ/2-class gate at
// 2.5 GS/s with 14-bit precision and the Horse Ridge SNR.
func DefaultCMOS1QConfig() CMOS1QConfig {
	return CMOS1QConfig{
		GateTime:        25e-9,
		SampleRateHz:    2.5e9,
		Bits:            14,
		SNRdB:           44,
		AnharmonicityHz: -330e6,
		Theta:           math.Pi / 2,
		Axis:            'x',
		DRAG:            true,
		Trials:          8,
		Seed:            1,
	}
}

// CMOS1QCalibration is the tune-up of a CMOS single-qubit gate: the scale
// on the drive's two-level Rabi rate and the drive detuning, found on the
// clean pulse by CalibrateCMOS1Q.
type CMOS1QCalibration struct {
	Scale     float64
	DetuneRad float64 // qubit − drive detuning, rad/s
}

// CMOS1QResult reports the model output.
type CMOS1QResult struct {
	// Error is the mean average-gate-infidelity over noise trials.
	Error float64
	// CoherentError is the infidelity of the noiseless quantised pulse.
	CoherentError float64
	// Leakage is the |2>-state population left by the noiseless pulse.
	Leakage float64
}

// cmos1qModel is the pulse and 3-level transmon a CMOS1QConfig describes,
// with the scratch its simulations reuse: a calibration re-runs simulate
// ~150 times, so the per-sample Hamiltonians and propagator scratch are
// built in place.
type cmos1qModel struct {
	axis       byte
	n          int
	ts, rabi   float64
	amps, drag []float64 // clean envelope on the gate axis, DRAG quadrature
	ideal      *cmath.Matrix
	d          *ham.DrivenTransmon
	ws         ham.EvolveWorkspace
	hs         []*cmath.Matrix
	u          *cmath.Matrix
}

func newCMOS1QModel(cfg CMOS1QConfig) *cmos1qModel {
	n := int(math.Round(cfg.GateTime * cfg.SampleRateHz))
	if n < 4 {
		n = 4
	}
	ts := cfg.GateTime / float64(n)
	amps := pulse.Samples(pulse.CosineEnvelope{}, n, cfg.GateTime)

	// Pulse area for a cosine envelope is T/2; set the Rabi rate so the
	// two-level rotation angle is Theta, then fine-calibrate the amplitude
	// scale against the 3-level simulation (experimental tune-up analogue).
	var area float64
	for _, a := range amps {
		area += a * ts
	}
	rabi := cfg.Theta / area
	alpha := 2 * math.Pi * cfg.AnharmonicityHz

	// DRAG quadrature: Q(t) = -Ȧ(t)/α (in envelope units).
	drag := make([]float64, n)
	if cfg.DRAG && alpha != 0 {
		for k := 0; k < n; k++ {
			t := (float64(k) + 0.5) * ts
			// derivative of the cosine envelope
			dA := math.Pi / cfg.GateTime * math.Sin(2*math.Pi*t/cfg.GateTime)
			drag[k] = -dA / alpha // envelope units: -Ȧ/α
		}
	}

	m := &cmos1qModel{
		axis: cfg.Axis, n: n, ts: ts, rabi: rabi, amps: amps, drag: drag,
		ideal: idealRotation(cfg.Theta, cfg.Axis),
		d:     ham.NewDrivenTransmon(3, 0, alpha, rabi),
		u:     cmath.NewMatrix(3, 3),
	}
	m.hs = m.ws.HamiltonianBuffer(n, 3)
	return m
}

// simulate returns the propagator of the pulse (main on the gate axis, quad
// in quadrature) under cal. The matrix is owned by the model and valid until
// the next call.
func (m *cmos1qModel) simulate(main, quad []float64, cal CMOS1QCalibration) *cmath.Matrix {
	m.d.DetuningRad = cal.DetuneRad
	m.d.RabiRad = m.rabi * cal.Scale
	for k := 0; k < m.n; k++ {
		// Axis 'x': envelope on I, DRAG on Q. Axis 'y': the gate phase
		// shifts by π/2, i.e. envelope on Q and -DRAG on I.
		if m.axis == 'y' {
			m.d.HamiltonianInto(m.hs[k], -quad[k], main[k])
		} else {
			m.d.HamiltonianInto(m.hs[k], main[k], quad[k])
		}
	}
	m.ws.EvolveSamplesInto(m.u, m.hs, m.ts)
	return m.u
}

// score is the gate error on the computational subspace: the |2> level's
// free phase is unobservable, but any population left there shrinks the
// 2x2 block's norm, so leakage is still penalised.
func (m *cmos1qModel) score(u *cmath.Matrix) float64 {
	u2 := cmath.QubitSubspace(u)
	return cmath.GateError(m.ideal, cmath.GlobalPhaseAlign(m.ideal, u2))
}

// CalibrateCMOS1Q tunes (scale, detuning) on the clean pulse by coordinate
// descent with golden-section search, exactly what an experimentalist's
// tune-up does. It reads only GateTime, SampleRateHz, AnharmonicityHz,
// Theta, Axis and DRAG, never Bits, SNRdB, Trials or Seed, so one
// calibration serves a gate at every precision and noise level.
func CalibrateCMOS1Q(cfg CMOS1QConfig) CMOS1QCalibration {
	m := newCMOS1QModel(cfg)
	cal := CMOS1QCalibration{Scale: 1}
	for iter := 0; iter < 3; iter++ {
		cal.Scale = goldenMin(func(s float64) float64 {
			return m.score(m.simulate(m.amps, m.drag, CMOS1QCalibration{Scale: s, DetuneRad: cal.DetuneRad}))
		}, cal.Scale*0.98, cal.Scale*1.02, 24)
		cal.DetuneRad = goldenMin(func(dt float64) float64 {
			return m.score(m.simulate(m.amps, m.drag, CMOS1QCalibration{Scale: cal.Scale, DetuneRad: dt}))
		}, cal.DetuneRad-2*math.Pi*3e6, cal.DetuneRad+2*math.Pi*3e6, 24)
	}
	return cal
}

// CMOS1QError runs the model pipeline on a calibrated drive: envelope →
// digital samples → quantisation → Gaussian noise → 3-level Hamiltonian
// simulation → average gate infidelity vs. the ideal rotation.
func CMOS1QError(cfg CMOS1QConfig, cal CMOS1QCalibration) CMOS1QResult {
	if cfg.Trials <= 0 {
		cfg.Trials = 8
	}
	m := newCMOS1QModel(cfg)

	// Coherent (noiseless but quantised) pulse.
	qi := pulse.Quantize(m.amps, cfg.Bits)
	qq := pulse.Quantize(m.drag, cfg.Bits)
	uCoh := m.simulate(qi, qq, cal).Clone()
	res := CMOS1QResult{CoherentError: m.score(uCoh)}
	v := uCoh.ApplyTo(cmath.BasisVec(3, 0))
	res.Leakage = real(v[2])*real(v[2]) + imag(v[2])*imag(v[2])

	if cfg.SNRdB <= 0 {
		res.Error = res.CoherentError
		return res
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sum float64
	for trial := 0; trial < cfg.Trials; trial++ {
		ni := pulse.AddNoiseSNR(qi, cfg.SNRdB, rng)
		nq := pulse.AddNoiseSNR(qq, cfg.SNRdB, rng)
		sum += m.score(m.simulate(ni, nq, cal))
	}
	res.Error = sum / float64(cfg.Trials)
	return res
}

func idealRotation(theta float64, axis byte) *cmath.Matrix {
	if axis == 'y' {
		return cmath.Ry(theta)
	}
	return cmath.Rx(theta)
}

// goldenMin minimises f on [a, b] by golden-section search with n probes.
func goldenMin(f func(float64) float64, a, b float64, n int) float64 {
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < n; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	if f1 < f2 {
		return x1
	}
	return x2
}

// DecoherenceFidelity returns the average fidelity of the combined
// amplitude-damping (T1) and dephasing (T2) channel over duration t:
//
//	F_avg(t) = 1/2 + e^{-t/T1}/6 + e^{-t/T2}/3
//
// (the Bloch–Redfield single-qubit result; F(0)=1, F(∞)=1/2).
func DecoherenceFidelity(t, t1, t2 float64) float64 {
	return 0.5 + math.Exp(-t/t1)/6 + math.Exp(-t/t2)/3
}

// WithDecoherence combines a coherent gate error with the decoherence channel
// over the gate duration, as the paper does for CMOS 1Q / readout validation.
func WithDecoherence(coherentError, t, t1, t2 float64) float64 {
	return 1 - (1-coherentError)*DecoherenceFidelity(t, t1, t2)
}
