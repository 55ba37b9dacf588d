// Package pulse implements QIsim's waveform substrate: the digital sample
// streams the QCI drive/pulse/TX circuits emit, the analog imperfections the
// gate-error models inject (bit quantisation, SNR-limited Gaussian noise), and
// the SFQ pulse trains of the SFQ-based QCI.
package pulse

import (
	"math"
	"math/rand"
)

// Envelope is a pulse envelope A(t) normalised to [0, 1], defined on [0, T].
type Envelope interface {
	// Amplitude returns the envelope value at time t for total duration T.
	Amplitude(t, total float64) float64
}

// CosineEnvelope is 0.5(1-cos(2πt/T)): zero-ended, smooth, cheap to store.
type CosineEnvelope struct{}

// Amplitude implements Envelope.
func (CosineEnvelope) Amplitude(t, total float64) float64 {
	return 0.5 * (1 - math.Cos(2*math.Pi*t/total))
}

// FlatTopEnvelope is the CZ flux-pulse shape: raised-cosine ramp-up, flat
// hold, raised-cosine ramp-down. RampFrac is the fraction of the total
// duration spent in EACH ramp (e.g. 0.15 → 15% up, 70% hold, 15% down).
type FlatTopEnvelope struct {
	RampFrac float64
}

// Amplitude implements Envelope.
func (f FlatTopEnvelope) Amplitude(t, total float64) float64 {
	rf := f.RampFrac
	if rf <= 0 {
		rf = 0.15
	}
	ramp := rf * total
	switch {
	case t < 0 || t > total:
		return 0
	case t < ramp:
		return 0.5 * (1 - math.Cos(math.Pi*t/ramp))
	case t > total-ramp:
		return 0.5 * (1 - math.Cos(math.Pi*(total-t)/ramp))
	default:
		return 1
	}
}

// UnitStepEnvelope is the pathological Horse Ridge II pulse shape: full
// amplitude instantly, no ramps. The paper's Hamiltonian simulation shows it
// "almost cannot realize the CZ gate"; ours reproduces that.
type UnitStepEnvelope struct{}

// Amplitude implements Envelope.
func (UnitStepEnvelope) Amplitude(t, total float64) float64 {
	if t < 0 || t > total {
		return 0
	}
	return 1
}

// SquareEnvelope is an alias for the readout TX square envelope.
type SquareEnvelope = UnitStepEnvelope

// Samples evaluates env at n uniformly spaced sample instants across total.
func Samples(env Envelope, n int, total float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = env.Amplitude(total/2, total)
		return out
	}
	dt := total / float64(n-1)
	for i := range out {
		out[i] = env.Amplitude(float64(i)*dt, total)
	}
	return out
}

// Quantize rounds each sample to the grid of a signed DAC with the given bit
// precision over full-scale [-1, 1]. This is the Opt-#2 lever: fewer bits →
// cheaper drive digital logic but coarser waveforms.
func Quantize(samples []float64, bits int) []float64 {
	if bits <= 0 || bits >= 52 {
		out := make([]float64, len(samples))
		copy(out, samples)
		return out
	}
	levels := float64(int64(1) << (bits - 1)) // signed: 2^(b-1) steps per side
	out := make([]float64, len(samples))
	for i, s := range samples {
		q := math.Round(s*levels) / levels
		if q > 1 {
			q = 1
		}
		if q < -1 {
			q = -1
		}
		out[i] = q
	}
	return out
}

// AddNoiseSNR adds zero-mean Gaussian noise whose power is set by the given
// SNR in dB relative to the RMS signal power, reproducing the noisy-analog
// stage of the gate-error model (Fig. 7, step 1→2).
func AddNoiseSNR(samples []float64, snrDB float64, rng *rand.Rand) []float64 {
	var power float64
	for _, s := range samples {
		power += s * s
	}
	if len(samples) > 0 {
		power /= float64(len(samples))
	}
	sigma := math.Sqrt(power / math.Pow(10, snrDB/10))
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s + sigma*rng.NormFloat64()
	}
	return out
}

// SFQTrain is a binary pulse train emitted at the SFQ clock rate: element k
// is true when an SFQ pulse is launched in clock cycle k.
type SFQTrain []bool

// AlignedTrain returns a train of n cycles that launches burst consecutive
// pulses each time the resonator phase completes a full turn: pulse groups
// stay phase-locked to the resonator even when the clock-to-resonator
// frequency ratio is irrational. This is how the SFQ resonator-driving
// circuit of Section 3.4.3 constructs its pulse train.
func AlignedTrain(n int, fresHz, fclkHz float64, burst int) SFQTrain {
	if burst < 1 {
		burst = 1
	}
	t := make(SFQTrain, n)
	ratio := fresHz / fclkHz
	prev := 0.0
	pending := 0
	for k := 0; k < n; k++ {
		cur := float64(k+1) * ratio
		if math.Floor(cur) > math.Floor(prev) {
			pending = burst
		}
		if pending > 0 {
			t[k] = true
			pending--
		}
		prev = cur
	}
	return t
}

// Count returns the number of pulses in the train.
func (t SFQTrain) Count() int {
	c := 0
	for _, b := range t {
		if b {
			c++
		}
	}
	return c
}

// DriveEnergyAt computes the magnitude of the frequency-domain component of
// the pulse train at frequency fHz given clock fclkHz: each pulse is a phasor
// rotating at the resonator frequency; coherent accumulation measures how
// effectively the train drives the resonator (Section 3.4.3-i / Opt-#8).
func (t SFQTrain) DriveEnergyAt(fHz, fclkHz float64) float64 {
	var re, im float64
	for k, b := range t {
		if !b {
			continue
		}
		theta := 2 * math.Pi * fHz * float64(k) / fclkHz
		re += math.Cos(theta)
		im += math.Sin(theta)
	}
	return math.Hypot(re, im)
}
