// Package pauli is QIsim's workload-level error simulator (Section 4.5): it
// combines the cycle-accurate gate-timing trace with gate/readout error
// rates and a decoherence-error injector (identity gates inserted over idle
// periods, converted to Pauli-channel probabilities from T1/T2) to predict
// end-to-end workload fidelity. Two estimators are provided: the analytic
// estimated-success-probability (ESP) product — the SupermarQ metric — and a
// Monte-Carlo Pauli-event sampler that agrees with it in expectation.
package pauli

import (
	"context"
	"math"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
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
	// Shots for the Monte-Carlo estimator.
	Shots int
	Seed  int64
}

// DefaultConfig returns a 100 ns injection period and 4,000 shots.
func DefaultConfig(r ErrorRates) Config {
	return Config{Rates: r, DecoherencePeriod: 100e-9, Shots: 4000, Seed: 3}
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

// MCResult is the context-aware Monte-Carlo outcome: Fidelity is the success
// fraction over the completed shots; Status flags truncation/convergence.
type MCResult struct {
	Fidelity  float64       `json:"fidelity"`
	Successes int           `json:"successes"`
	Status    simrun.Status `json:"status"`
}

// MonteCarloCtx samples Pauli error events shot by shot: a shot succeeds
// when no error event fires (the discrete-event equivalent of ESP; it
// converges to ESP with shot count and provides the hook for
// correlated-error extensions). It runs on the sharded parallel engine:
// shard RNG streams derive deterministically
// from cfg.Seed, shard results merge in shard order, and the success
// fraction is bit-identical for every opt.Workers count. Cancellation keeps
// the completed shard prefix as a partial, Truncated-flagged estimate; opt
// can enable the cross-shard standard-error convergence guard (on the
// failure count).
func MonteCarloCtx(ctx context.Context, res *cyclesim.Result, cfg Config, opt simrun.Options) (MCResult, error) {
	cfg, run, merge, err := MonteCarloCore(res, cfg)
	if err != nil {
		return MCResult{}, err
	}
	success, status, gerr := simrun.RunSharded(ctx, cfg.Shots, cfg.Seed, opt, run, merge)
	if gerr != nil {
		return MCResult{}, gerr
	}
	return MCResultFrom(success, status), nil
}

// MonteCarloCore validates and normalizes the Pauli-event MC configuration
// and returns (normalized cfg, per-shard sampler, in-order merge) — the
// pieces a distributed executor needs to run an arbitrary shard window of
// this model and fold it bit-identically to a local run.
func MonteCarloCore(res *cyclesim.Result, cfg Config) (Config, simrun.ShardFunc[int], func(*int, int), error) {
	if res == nil {
		return cfg, nil, nil, simerr.Invalidf("pauli: nil cyclesim result")
	}
	if cfg.Shots <= 0 {
		cfg.Shots = 4000
	}
	period := cfg.DecoherencePeriod
	if period <= 0 {
		period = 100e-9
	}
	pp := cfg.Rates.DecoherenceError(period)
	// Pre-collect idle identity counts (read-only across shards).
	var idleIDs int
	for q := 0; q < len(res.QubitBusy); q++ {
		idleIDs += int(res.IdleTime(q) / period)
	}
	// Pre-resolve the per-op error probabilities, keeping only the p > 0
	// entries in op order. The shot loop only ever draws where p > 0, so
	// iterating the compacted table consumes the exact same draw sequence as
	// re-deriving p per op — the result is bit-identical, without the
	// per-shot × per-op GateError dispatch.
	pTable := make([]float64, 0, len(res.Ops))
	for _, op := range res.Ops {
		if p := cfg.Rates.GateError(op.Instr); p > 0 {
			pTable = append(pTable, p)
		}
	}
	run := func(t *simrun.ShardTask) (int, int, error) {
		succ := 0
		done := 0
		for s := 0; t.Continue(s); s++ {
			done++
			ok := true
			for _, p := range pTable {
				if t.RNG.Float64() < p {
					ok = false
					break
				}
			}
			if ok {
				for i := 0; i < idleIDs; i++ {
					if t.RNG.Float64() < pp {
						ok = false
						break
					}
				}
			}
			if ok {
				succ++
			}
		}
		return succ, done - succ, nil
	}
	return cfg, run, func(dst *int, src int) { *dst += src }, nil
}

// MCResultFrom assembles the Pauli-event MC result from a folded success
// count and the run's status — shared by the local path and the
// distributed merge so both produce identical result bytes.
func MCResultFrom(success int, status simrun.Status) MCResult {
	out := MCResult{Successes: success, Status: status}
	if status.Completed > 0 {
		out.Fidelity = float64(success) / float64(status.Completed)
	}
	return out
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
