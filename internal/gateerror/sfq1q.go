package gateerror

import (
	"math"

	"qisim/internal/cmath"
	"qisim/internal/pulse"
)

// SFQ1QConfig configures the SFQ single-qubit gate-error model. The SFQ drive
// realises the basis gate Ry(π/2)·Rz(φ): each SFQ pulse applies a small
// y-rotation, and the qubit precesses about z between pulses (Section 2.3.2).
type SFQ1QConfig struct {
	// ClockHz is the SFQ controller clock (Table 2: 24 GHz).
	ClockHz float64
	// QubitFreqHz is the qubit frequency (pulses must align with its phase).
	QubitFreqHz float64
	// TiltPerPulse is the y-rotation per SFQ pulse in radians. Hardware sets
	// this via the pulse's coupled flux; typical values are a few mrad–tens
	// of mrad so a π/2 gate needs tens of pulses.
	TiltPerPulse float64
	// StreamBits is the bitstream length budget in clock cycles (the 21-bit
	// configuration of Fig. 9 uses 5-bit Ry selection; the physical stream
	// spans StreamBits cycles).
	StreamBits int
	// RzBits is the phase resolution of the Rz(φ) selection (16 in Fig. 9).
	RzBits int
	// MaxOptimizeIters bounds the iterative pulse-pair optimisation.
	MaxOptimizeIters int
	// AnharmonicityHz, when non-zero, scores the optimisation on the
	// 3-level transmon so the pulse spacing also suppresses |2> leakage —
	// the full bitstream-optimisation method of Li et al.
	AnharmonicityHz float64
}

// DefaultSFQ1QConfig returns the paper's SFQ drive setup.
func DefaultSFQ1QConfig() SFQ1QConfig {
	return SFQ1QConfig{
		ClockHz:          24e9,
		QubitFreqHz:      5e9,
		TiltPerPulse:     math.Pi / 2 / 60,
		StreamBits:       320,
		RzBits:           16,
		MaxOptimizeIters: 2000,
	}
}

// ValidationSFQ1QConfig reproduces the Table 1 validation point against the
// Li et al. reference (1.37e-5): a longer, finer-tilt stream whose optimised
// error lands at ~1.5e-5.
func ValidationSFQ1QConfig() SFQ1QConfig {
	cfg := DefaultSFQ1QConfig()
	cfg.TiltPerPulse = math.Pi / 2 / 80
	cfg.StreamBits = 480
	cfg.MaxOptimizeIters = 3000
	return cfg
}

// SFQ1QResult reports the SFQ single-qubit model output.
type SFQ1QResult struct {
	// Error is the average gate infidelity of the optimised bitstream
	// against Ry(π/2) (Rz(φ) folds in via the phase-precision term).
	Error float64
	// RzError is the additional error from the finite Rz phase precision.
	RzError float64
	// Pulses is the pulse count of the optimised stream.
	Pulses int
	// Duration is the stream length in seconds.
	Duration float64
	// Iterations is the number of optimisation steps taken.
	Iterations int
	// Train is the optimised bitstream.
	Train pulse.SFQTrain
}

// ComposeBitstream returns the two-level unitary realised by an SFQ pulse
// train: free z-precession of 2π·fq/fclk per clock cycle, interleaved with
// Ry(tilt) at each pulse. The result is expressed in the qubit rotating
// frame, i.e. the net frame rotation over the stream is removed.
func ComposeBitstream(train pulse.SFQTrain, fclk, fq, tilt float64) *cmath.Matrix {
	phasePerTick := 2 * math.Pi * fq / fclk
	// The two gate matrices are constant over the stream; building them once
	// and ping-ponging two product buffers keeps the optimizer's inner loop
	// (hundreds of ticks × thousands of score calls) allocation-free.
	ry := cmath.Ry(tilt)
	rz := cmath.Rz(phasePerTick)
	u := cmath.Identity(2)
	tmp := cmath.NewMatrix(2, 2)
	for _, p := range train {
		if p {
			cmath.MulInto(tmp, ry, u)
			u, tmp = tmp, u
		}
		cmath.MulInto(tmp, rz, u)
		u, tmp = tmp, u
	}
	// Undo the frame precession accumulated over the whole stream.
	total := phasePerTick * float64(len(train))
	cmath.MulInto(tmp, cmath.Rz(-total), u)
	return tmp
}

// ComposeBitstream3 evolves the same pulse train on a 3-level transmon: the
// SFQ kick drives the 1↔2 transition with √2 coupling, and the |2> level
// precesses with the extra anharmonic phase between pulses. It returns the
// full 3x3 operator, whose computational block shrinks by the leakage the
// 2-level model cannot see (the effect the bitstream-optimisation literature
// suppresses with harmonic-free pulse spacings).
func ComposeBitstream3(train pulse.SFQTrain, fclk, fq, anharmHz, tilt float64) *cmath.Matrix {
	phasePerTick := 2 * math.Pi * fq / fclk
	anhPerTick := 2 * math.Pi * anharmHz / fclk
	// Free precession per tick in the rotating frame of the qubit: |1> at 0,
	// |2> at the anharmonic offset.
	free := cmath.NewMatrix(3, 3)
	free.Set(0, 0, 1)
	free.Set(1, 1, cexpi(-phasePerTick))
	free.Set(2, 2, cexpi(-2*phasePerTick-anhPerTick))
	// Kick: exp(-i·(tilt/2)·(a+a†)_y) on 3 levels.
	a := cmath.Destroy(3)
	ad := cmath.Create(3)
	y := cmath.Scale(1i, cmath.Sub(ad, a))
	kick := cmath.Expm(cmath.Scale(complex(0, -tilt/2), y))

	u := cmath.Identity(3)
	tmp := cmath.NewMatrix(3, 3)
	for _, p := range train {
		if p {
			cmath.MulInto(tmp, kick, u)
			u, tmp = tmp, u
		}
		cmath.MulInto(tmp, free, u)
		u, tmp = tmp, u
	}
	// Undo the qubit frame rotation on |1> (and 2x on |2>).
	total := phasePerTick * float64(len(train))
	undo := cmath.NewMatrix(3, 3)
	undo.Set(0, 0, 1)
	undo.Set(1, 1, cexpi(total))
	undo.Set(2, 2, cexpi(2*total))
	cmath.MulInto(tmp, undo, u)
	return tmp
}

func cexpi(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}

// SFQ1QLeakage evaluates an optimised bitstream on the 3-level transmon and
// returns the leakage-inclusive error and the |2> population from |0> and
// |1> starts.
func SFQ1QLeakage(cfg SFQ1QConfig, anharmHz float64, train pulse.SFQTrain) (err, leak float64) {
	u3 := ComposeBitstream3(train, cfg.ClockHz, cfg.QubitFreqHz, anharmHz, cfg.TiltPerPulse)
	ideal := cmath.Ry(math.Pi / 2)
	u2 := cmath.QubitSubspace(u3)
	err = cmath.GateError(ideal, cmath.GlobalPhaseAlign(ideal, u2))
	for _, start := range []int{0, 1} {
		v := u3.ApplyTo(cmath.BasisVec(3, start))
		leak += real(v[2])*real(v[2]) + imag(v[2])*imag(v[2])
	}
	leak /= 2
	return
}

// SFQ1QError builds an initial phase-aligned bitstream for Ry(π/2) and then
// iteratively inserts/removes pulse pairs while the error decreases,
// following the bitstream-optimising method of Li et al. that the paper
// adopts (Section 4.4.2).
func SFQ1QError(cfg SFQ1QConfig) SFQ1QResult {
	if cfg.MaxOptimizeIters <= 0 {
		cfg.MaxOptimizeIters = 400
	}
	phasePerTick := 2 * math.Pi * cfg.QubitFreqHz / cfg.ClockHz
	need := int(math.Round(math.Pi / 2 / cfg.TiltPerPulse))

	// Initial stream: fire on the clock tick nearest each zero-crossing of
	// the qubit phase (pulses then share a common rotation axis).
	train := make(pulse.SFQTrain, cfg.StreamBits)
	placed := 0
	for k := 0; k < cfg.StreamBits && placed < need; k++ {
		ph := math.Mod(phasePerTick*float64(k), 2*math.Pi)
		if ph > math.Pi {
			ph -= 2 * math.Pi
		}
		if math.Abs(ph) <= phasePerTick/2 {
			train[k] = true
			placed++
		}
	}

	ideal := cmath.Ry(math.Pi / 2)
	score := func(tr pulse.SFQTrain) float64 {
		if cfg.AnharmonicityHz != 0 {
			u3 := ComposeBitstream3(tr, cfg.ClockHz, cfg.QubitFreqHz, cfg.AnharmonicityHz, cfg.TiltPerPulse)
			u2 := cmath.QubitSubspace(u3)
			return cmath.GateError(ideal, cmath.GlobalPhaseAlign(ideal, u2))
		}
		u := ComposeBitstream(tr, cfg.ClockHz, cfg.QubitFreqHz, cfg.TiltPerPulse)
		return cmath.GateError(ideal, cmath.GlobalPhaseAlign(ideal, u))
	}

	best := score(train)
	iters := 0
	improved := true
	for improved && iters < cfg.MaxOptimizeIters {
		improved = false
		// Single-bit flips: toggling one pulse position at a time is the
		// pulse-pair insertion/removal move of the reference method (a pair
		// is two successive accepted flips).
		for k := 0; k < len(train) && iters < cfg.MaxOptimizeIters; k++ {
			train[k] = !train[k]
			if s := score(train); s < best {
				best = s
				improved = true
			} else {
				train[k] = !train[k]
			}
			iters++
		}
	}

	// Rz(φ) precision: φ resolves to 2π/2^RzBits, worst-case phase error
	// half a step; infidelity of Rz(δ) vs I on average is δ²/6.
	var rzErr float64
	if cfg.RzBits > 0 {
		delta := math.Pi / float64(int64(1)<<cfg.RzBits)
		rzErr = delta * delta / 6
	}

	return SFQ1QResult{
		Error:      best + rzErr,
		RzError:    rzErr,
		Pulses:     train.Count(),
		Duration:   float64(len(train)) / cfg.ClockHz,
		Iterations: iters,
		Train:      train,
	}
}
