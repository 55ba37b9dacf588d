// Package pauli is QIsim's workload-level error simulator (Section 4.5): it
// combines the cycle-accurate gate-timing trace with gate/readout error
// rates and a decoherence-error injector (identity gates inserted over idle
// periods, converted to Pauli-channel probabilities from T1/T2) to predict
// end-to-end workload fidelity as the estimated success probability (ESP),
// the SupermarQ metric: the product of every charged operation's survival
// probability. A Pauli-event sampler over the same per-operation
// probabilities would have ESP as its mean exactly, so the package has none.
package pauli

import (
	"math"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
)

// ErrorRates carries the physical error rates of a machine or QCI model.
type ErrorRates struct {
	OneQ    float64
	TwoQ    float64
	Readout float64
	T1, T2  float64
}

// DecoherenceError converts an idle interval into a Pauli error probability
// using the depolarising-equivalent of the T1/T2 channel:
// p = 1 - F_avg(t) with F_avg = 1/2 + e^{-t/T1}/6 + e^{-t/T2}/3.
func (e ErrorRates) DecoherenceError(idle float64) float64 {
	if idle <= 0 {
		return 0
	}
	f := 0.5 + math.Exp(-idle/e.T1)/6 + math.Exp(-idle/e.T2)/3
	return 1 - f
}

// GateError returns the error probability of one executed op.
func (e ErrorRates) GateError(in compile.Instr) float64 {
	switch in.Kind {
	case compile.OneQ:
		if in.Virtual {
			return 0
		}
		return e.OneQ
	case compile.TwoQ:
		return e.TwoQ
	case compile.Measure:
		return e.Readout
	default:
		return 0
	}
}

// Config controls the simulator.
type Config struct {
	Rates ErrorRates
	// DecoherencePeriod is the identity-injection granularity (the paper
	// inserts identity gates "for every specified period (e.g., 100ns)").
	DecoherencePeriod float64
}

// DefaultConfig returns a 100 ns injection period.
func DefaultConfig(r ErrorRates) Config {
	return Config{Rates: r, DecoherencePeriod: 100e-9}
}

// ESP returns the analytic estimated success probability of a simulated
// workload: the product of per-operation survival probabilities, including
// the injected decoherence identities over each qubit's idle exposure.
func ESP(res *cyclesim.Result, cfg Config) float64 {
	logp := 0.0
	for _, op := range res.Ops {
		p := cfg.Rates.GateError(op.Instr)
		if p > 0 {
			logp += math.Log1p(-clamp(p))
		}
	}
	// Decoherence: quantise each qubit's idle time into injection periods,
	// each contributing the period's decoherence error (matching the
	// identity-injection procedure of Section 4.5).
	period := cfg.DecoherencePeriod
	if period <= 0 {
		period = 100e-9
	}
	pp := cfg.Rates.DecoherenceError(period)
	for q := 0; q < len(res.QubitBusy); q++ {
		n := int(res.IdleTime(q) / period)
		if n > 0 {
			logp += float64(n) * math.Log1p(-clamp(pp))
		}
	}
	return math.Exp(logp)
}

func clamp(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.999999 {
		return 0.999999
	}
	return p
}
