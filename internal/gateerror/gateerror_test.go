package gateerror

import (
	"math"
	"testing"

	"qisim/internal/cmath"
	"qisim/internal/pulse"
)

// AnalysisSFQ1QConfig reproduces the Table 2 scalability-analysis operating
// point (~1.18e-4): a shorter stream with a coarser per-pulse tilt, trading
// fidelity for drive-circuit cost as the paper's 25 ns budget does.
func AnalysisSFQ1QConfig() SFQ1QConfig {
	cfg := DefaultSFQ1QConfig()
	cfg.TiltPerPulse = math.Pi / 2 / 26
	return cfg
}

// cmos1q and cz run a model under its own calibration.
func cmos1q(cfg CMOS1QConfig) CMOS1QResult { return CMOS1QError(cfg, CalibrateCMOS1Q(cfg)) }
func cz(cfg CZConfig) CZResult             { return CZError(cfg, CalibrateCZ(cfg)) }

func TestCMOS1QTable2Anchor(t *testing.T) {
	// Table 2 CMOS 1Q error (without decoherence): 8.17e-7. Our calibrated
	// model must land within a factor ~2 of the anchor.
	r := cmos1q(DefaultCMOS1QConfig())
	if r.Error < 3e-7 || r.Error > 1.8e-6 {
		t.Fatalf("CMOS 1Q error %.3g outside Table 2 anchor band around 8.17e-7", r.Error)
	}
	if r.CoherentError > r.Error {
		t.Fatal("coherent error cannot exceed the noisy total")
	}
	if r.Leakage > 1e-6 {
		t.Fatalf("DRAG-corrected leakage %.3g too high", r.Leakage)
	}
}

func TestCMOS1QNoiseMonotonic(t *testing.T) {
	cfg := DefaultCMOS1QConfig()
	cfg.Trials = 4
	cal := CalibrateCMOS1Q(cfg)
	var prev float64 = math.Inf(1)
	for _, snr := range []float64{35, 45, 55} {
		cfg.SNRdB = snr
		e := CMOS1QError(cfg, cal).Error
		if e > prev {
			t.Fatalf("error should fall with SNR: %.3g at %v dB > %.3g", e, snr, prev)
		}
		prev = e
	}
}

func TestCMOS1QBitPrecisionSaturates(t *testing.T) {
	// Fig. 14(b): the 1Q gate error saturates around 9 bits; very coarse
	// precision must hurt.
	cfg := DefaultCMOS1QConfig()
	cfg.SNRdB = 0 // isolate quantisation
	cal := CalibrateCMOS1Q(cfg)
	errAt := func(bits int) float64 {
		cfg.Bits = bits
		return CMOS1QError(cfg, cal).Error
	}
	e3, e9, e14 := errAt(3), errAt(9), errAt(14)
	if e3 < 10*e9 {
		t.Fatalf("3-bit error %.3g should be far above 9-bit %.3g", e3, e9)
	}
	if e14 > 2*e9+1e-9 {
		t.Fatalf("9-bit should be near saturation: e9=%.3g e14=%.3g", e9, e14)
	}
}

func TestCMOS1QDRAGHelps(t *testing.T) {
	cfg := DefaultCMOS1QConfig()
	cfg.SNRdB = 0
	withDRAG := cmos1q(cfg)
	cfg.DRAG = false
	without := cmos1q(cfg)
	if withDRAG.Leakage >= without.Leakage {
		t.Fatalf("DRAG should reduce leakage: %.3g vs %.3g", withDRAG.Leakage, without.Leakage)
	}
}

func TestCMOS1QAxisY(t *testing.T) {
	cfg := DefaultCMOS1QConfig()
	cfg.Axis = 'y'
	cfg.SNRdB = 0
	r := cmos1q(cfg)
	if r.Error > 1e-6 {
		t.Fatalf("y-axis gate error %.3g too high", r.Error)
	}
}

func TestSFQ1QValidationAnchor(t *testing.T) {
	// Table 1: model 1.51e-5 vs reference 1.37e-5.
	r := SFQ1QError(ValidationSFQ1QConfig())
	if r.Error < 5e-6 || r.Error > 4e-5 {
		t.Fatalf("SFQ 1Q validation error %.3g outside anchor band around 1.5e-5", r.Error)
	}
	if r.Pulses < 60 {
		t.Fatalf("optimised stream has too few pulses: %d", r.Pulses)
	}
}

func TestSFQ1QAnalysisAnchor(t *testing.T) {
	// Table 2 analysis point: 1.18e-4.
	r := SFQ1QError(AnalysisSFQ1QConfig())
	if r.Error < 4e-5 || r.Error > 3e-4 {
		t.Fatalf("SFQ 1Q analysis error %.3g outside anchor band around 1.18e-4", r.Error)
	}
	if r.Duration > 25e-9 {
		t.Fatalf("stream duration %v ns exceeds the 25 ns Table 2 budget", r.Duration*1e9)
	}
}

func TestSFQ1QOptimizerImproves(t *testing.T) {
	cfg := DefaultSFQ1QConfig()
	cfg.MaxOptimizeIters = 0 // sentinel handled as default; use 1 to disable
	cfg.MaxOptimizeIters = 1
	rough := SFQ1QError(cfg)
	cfg.MaxOptimizeIters = 2000
	tuned := SFQ1QError(cfg)
	if tuned.Error > rough.Error {
		t.Fatalf("optimisation should not worsen the stream: %.3g > %.3g", tuned.Error, rough.Error)
	}
}

func TestComposeBitstreamEmptyIsIdentity(t *testing.T) {
	tr := make(pulse.SFQTrain, 48) // 48 ticks at 24 GHz with 5 GHz qubit: 2ns idle
	u := ComposeBitstream(tr, 24e9, 5e9, 0.01)
	if e := cmath.GateError(cmath.Identity(2), u); e > 1e-12 {
		t.Fatalf("empty train should be identity in the rotating frame, error %.3g", e)
	}
}

func TestComposeBitstreamSinglePulse(t *testing.T) {
	tr := make(pulse.SFQTrain, 1)
	tr[0] = true
	tilt := 0.02
	u := ComposeBitstream(tr, 24e9, 5e9, tilt)
	// One pulse then frame-aligned precession: equivalent to Ry(tilt) up to
	// a z-rotation conjugation; check the rotation angle via the trace.
	tr2 := math.Abs(real(cmath.Trace(u)))
	want := 2 * math.Cos(tilt/2)
	if math.Abs(tr2-want) > 1e-9 {
		t.Fatalf("single-pulse rotation angle wrong: |Tr| = %v, want %v", tr2, want)
	}
}

func TestSFQ3LevelLeakage(t *testing.T) {
	// A train optimised on 2 levels leaks into |2>; scoring the optimiser on
	// the 3-level transmon (the full Li et al. method) suppresses it by an
	// order of magnitude.
	cfg := DefaultSFQ1QConfig()
	r2 := SFQ1QError(cfg)
	e2, leak2 := SFQ1QLeakage(cfg, -330e6, r2.Train)
	cfg3 := cfg
	cfg3.AnharmonicityHz = -330e6
	r3 := SFQ1QError(cfg3)
	e3, leak3 := SFQ1QLeakage(cfg3, -330e6, r3.Train)
	t.Logf("leakage-inclusive error %.3g → %.3g, |2> population %.3g → %.3g", e2, e3, leak2, leak3)
	if leak2 < 1e-5 {
		t.Fatalf("2-level-optimised train should leak visibly, got %.3g", leak2)
	}
	if e3 > e2/5 {
		t.Fatalf("3-level optimisation should cut the error >5x: %.3g → %.3g", e2, e3)
	}
	if leak3 > leak2/5 {
		t.Fatalf("3-level optimisation should cut leakage >5x: %.3g → %.3g", leak2, leak3)
	}
}

func TestComposeBitstream3ReducesTo2Level(t *testing.T) {
	// With huge anharmonicity the |2> level decouples and the 3-level
	// computational block matches the 2-level composition.
	cfg := DefaultSFQ1QConfig()
	r := SFQ1QError(cfg)
	u2 := ComposeBitstream(r.Train, cfg.ClockHz, cfg.QubitFreqHz, cfg.TiltPerPulse)
	u3 := ComposeBitstream3(r.Train, cfg.ClockHz, cfg.QubitFreqHz, -330e6, cfg.TiltPerPulse/1000)
	_ = u3 // tiny tilt: both near identity; main check below at real tilt
	e, _ := SFQ1QLeakage(cfg, -330e6, r.Train)
	base := cmath.GateError(cmath.Ry(math.Pi/2), cmath.GlobalPhaseAlign(cmath.Ry(math.Pi/2), u2))
	// The 3-level error must be at least the 2-level error (leakage only
	// adds error).
	if e < base-1e-9 {
		t.Fatalf("3-level error %.3g below 2-level %.3g", e, base)
	}
}

func TestCZTable2Anchor(t *testing.T) {
	// Table 2 CMOS CZ error: 7.8e-4; Table 1 model value 1.09e-3 for SFQ.
	r := cz(DefaultCZConfig())
	if r.Error < 3e-4 || r.Error > 1.6e-3 {
		t.Fatalf("CZ error %.3g outside anchor band around 7.8e-4", r.Error)
	}
	if math.Abs(math.Abs(r.CondPhase)-math.Pi) > 0.02 {
		t.Fatalf("conditional phase %v not π", r.CondPhase)
	}
}

func TestCZSFQAnchor(t *testing.T) {
	r := cz(DefaultSFQCZConfig())
	if r.Error < 4e-4 || r.Error > 2.5e-3 {
		t.Fatalf("SFQ CZ error %.3g outside anchor band around 1.09e-3", r.Error)
	}
}

func TestUnitStepCZPathology(t *testing.T) {
	// Section 3.3.2: "the unit-step voltage almost cannot realize the CZ
	// gate" — the error must be orders of magnitude above the ramped pulse.
	ramped := cz(DefaultCZConfig())
	step := cz(UnitStepCZConfig())
	if step.Error < 50*ramped.Error {
		t.Fatalf("unit step error %.3g should dwarf ramped %.3g", step.Error, ramped.Error)
	}
	if step.Error < 0.02 {
		t.Fatalf("unit-step CZ error %.3g implausibly low", step.Error)
	}
}

func TestCZNoiseMonotonic(t *testing.T) {
	cfg := DefaultCZConfig()
	cfg.Trials = 4
	cal := CalibrateCZ(cfg)
	var prev float64
	for _, sig := range []float64{0, 3e-3, 9e-3} {
		cfg.NoiseSigma = sig
		e := CZError(cfg, cal).Error
		if e < prev {
			t.Fatalf("CZ error should grow with flux noise: %.3g at σ=%v < %.3g", e, sig, prev)
		}
		prev = e
	}
}

func TestDecoherenceFidelityLimits(t *testing.T) {
	if f := DecoherenceFidelity(0, 100e-6, 100e-6); math.Abs(f-1) > 1e-12 {
		t.Fatalf("F(0) = %v, want 1", f)
	}
	if f := DecoherenceFidelity(1, 100e-6, 100e-6); math.Abs(f-0.5) > 1e-3 {
		t.Fatalf("F(∞) = %v, want 0.5", f)
	}
	// Monotone decreasing in t.
	f1 := DecoherenceFidelity(10e-9, 100e-6, 100e-6)
	f2 := DecoherenceFidelity(100e-9, 100e-6, 100e-6)
	if f2 >= f1 {
		t.Fatal("decoherence fidelity must decrease with time")
	}
}

func TestWithDecoherenceIBMAnchor(t *testing.T) {
	// Table 1: CMOS 1Q incl. decoherence — model 6.07e-5 vs ibm_peekskill
	// 6.59e-5, using the reference machine's T1/T2.
	coh := cmos1q(DefaultCMOS1QConfig()).Error
	total := WithDecoherence(coh, 25e-9, 280e-6, 175e-6)
	if total < 4e-5 || total > 9e-5 {
		t.Fatalf("decoherence-included 1Q error %.3g outside ibm_peekskill band", total)
	}
}

// TestCalibrationIgnoresPrecisionAndNoise pins why calibrating once per
// pulse is exact: the tune-ups never read the precision, noise, trial or
// seed fields, so Fig. 14's bit sweep and the CMOS/SFQ CZ variants share
// one calibration each.
func TestCalibrationIgnoresPrecisionAndNoise(t *testing.T) {
	base := DefaultCMOS1QConfig()
	want := CalibrateCMOS1Q(base)
	vary := []func(*CMOS1QConfig){
		func(c *CMOS1QConfig) { c.SNRdB = 0 },
		func(c *CMOS1QConfig) { c.SNRdB = 30 },
		func(c *CMOS1QConfig) { c.Trials = 3 },
		func(c *CMOS1QConfig) { c.Seed = 99 },
	}
	for _, bits := range []int{3, 4, 5, 6, 7, 8, 9, 10, 12, 14} { // Fig. 14's depths
		bits := bits
		vary = append(vary, func(c *CMOS1QConfig) { c.Bits = bits })
	}
	for i, f := range vary {
		cfg := base
		f(&cfg)
		if got := CalibrateCMOS1Q(cfg); got != want {
			t.Errorf("variant %d: CalibrateCMOS1Q = %+v, want %+v", i, got, want)
		}
	}
	if a, b := CalibrateCZ(DefaultCZConfig()), CalibrateCZ(DefaultSFQCZConfig()); a != b {
		t.Errorf("CalibrateCZ: CMOS %+v, SFQ %+v", a, b)
	}
}

func TestGoldenMinFindsMinimum(t *testing.T) {
	got := goldenMin(func(x float64) float64 { return (x - 0.37) * (x - 0.37) }, 0, 1, 40)
	if math.Abs(got-0.37) > 1e-6 {
		t.Fatalf("goldenMin = %v, want 0.37", got)
	}
}
