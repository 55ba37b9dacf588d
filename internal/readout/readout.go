// Package readout implements QIsim's CMOS dispersive-readout error model
// (Section 4.4.4) and the three state-decision units the paper studies:
//
//   - bin-counting (Horse Ridge II; the baseline, lowest-error method),
//   - single-point averaging (Google/IBM style), and
//   - the fast multi-round early-decision method of Opt-#7.
//
// The model has two tiers. The fast tier treats the post-ring-up IQ samples
// as i.i.d. draws around the two pointer states with a heavy-tailed amplifier
// noise mixture and a T1-decay channel, and evaluates each decision unit
// analytically (binomial/Gaussian) or with round-level Monte-Carlo. The slow
// tier (TrajectoryMCCtx) draws full cavity trajectories from the dispersive
// model in internal/ham and replays the decision units sample by sample; it
// cross-checks the fast tier and feeds the benchmarks.
package readout

import (
	"context"
	"math"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// Chain models the readout signal chain after demodulation: the per-sample
// separation-to-noise ratio of the two pointer states, the heavy-tailed
// outlier component contributed by the parametric-amplifier chain, and the
// probability that the qubit decays during the full integration window.
type Chain struct {
	// SNRPerSample is |α1-α0| / σ per IQ sample along the discriminating
	// axis (TWPA + HEMT + digital noise folded into σ).
	SNRPerSample float64
	// OutlierProb is the per-sample probability of an amplifier glitch.
	OutlierProb float64
	// OutlierFactor multiplies σ during a glitch.
	OutlierFactor float64
	// DecayProb is the probability the qubit relaxes |1>→|0> during the
	// full (all-rounds) integration window: T_int/T1.
	DecayProb float64
	// IQBits quantises each IQ coordinate before the decision unit
	// (Horse Ridge II bin memory uses 7-bit I/Q); 0 = ideal.
	IQBits int
}

// DefaultChain is calibrated so the 8-round (400 ns @ 2.5 GS/s after 117 ns
// ring-up → 517 ns total, Table 2) bin-counting error lands at ~1.0e-3.
func DefaultChain() Chain {
	return Chain{
		SNRPerSample:  0.282,
		OutlierProb:   0.003,
		OutlierFactor: 20,
		DecayProb:     400e-9 / 122e-6,
		IQBits:        7,
	}
}

// Timing describes the Horse Ridge II readout schedule.
type Timing struct {
	RingUp       float64 // resonator ring-up before sampling (117 ns)
	RoundTime    float64 // one decision round (50 ns)
	RoundSamples int     // samples per round (125 at 2.5 GS/s)
	MaxRounds    int     // full integration (8 rounds → 400 ns)
}

// DefaultTiming returns the Table 2 / Opt-#7 schedule.
func DefaultTiming() Timing {
	return Timing{RingUp: 117e-9, RoundTime: 50e-9, RoundSamples: 125, MaxRounds: 8}
}

// TotalTime returns ring-up plus n rounds.
func (t Timing) TotalTime(rounds float64) float64 {
	return t.RingUp + rounds*t.RoundTime
}

// perSampleCorrectProb returns the probability one IQ sample falls on the
// correct side of the discriminating line.
func (c Chain) perSampleCorrectProb() float64 {
	snr := c.SNRPerSample
	if c.IQBits > 0 {
		// Quantisation adds step²/12 variance with step = full-scale/2^bits;
		// full scale ≈ 8σ, so σq = 8σ/2^bits/√12.
		step := 8.0 / float64(int64(1)<<c.IQBits)
		snr /= math.Sqrt(1 + step*step/12)
	}
	clean := phi(snr / 2)
	glitch := phi(snr / (2 * c.OutlierFactor))
	return (1-c.OutlierProb)*clean + c.OutlierProb*glitch
}

// meanNoiseInflation is the single-point penalty: outliers inflate the
// variance of the sample mean (majority voting is immune to their size).
func (c Chain) meanNoiseInflation() float64 {
	of := c.OutlierFactor * c.OutlierFactor
	return math.Sqrt(1 + c.OutlierProb*(of-1))
}

// BinCountingError returns the misclassification probability of the
// bin-counting decision unit over the given number of rounds: a majority
// vote of all samples' sides, plus the decay penalty (a |1> qubit decaying in
// the first half of the window flips the majority).
func BinCountingError(c Chain, t Timing, rounds int) float64 {
	n := float64(rounds * t.RoundSamples)
	q := c.perSampleCorrectProb()
	// Normal approximation to P(Binom(n,q) <= n/2).
	z := (q - 0.5) * math.Sqrt(n) / math.Sqrt(q*(1-q))
	gauss := phi(-z)
	decay := c.decayPenalty(rounds, t)
	return gauss + decay
}

// SinglePointError returns the misclassification probability of averaging
// all samples into one IQ point and thresholding it. Outlier samples drag
// the mean, which is why Fig. 19(b) ranks this above bin counting.
func SinglePointError(c Chain, t Timing, rounds int) float64 {
	n := float64(rounds * t.RoundSamples)
	snr := c.SNRPerSample
	if c.IQBits > 0 {
		step := 8.0 / float64(int64(1)<<c.IQBits)
		snr /= math.Sqrt(1 + step*step/12)
	}
	z := snr * math.Sqrt(n) / 2 / c.meanNoiseInflation()
	gauss := phi(-z)
	decay := c.decayPenalty(rounds, t)
	return gauss + decay
}

// decayPenalty: qubit decays with prob DecayProb scaled to the window used;
// a decay in the first half of the window flips the decision for a prepared
// |1>, and prepared states are equiprobable → /4.
func (c Chain) decayPenalty(rounds int, t Timing) float64 {
	frac := float64(rounds) / float64(t.MaxRounds)
	return c.DecayProb * frac / 4
}

// MultiRoundConfig parameterises the Opt-#7 early-decision unit: after each
// round the cumulative side-count difference is compared against a decision
// range; values outside ±Range decide immediately, values inside trigger one
// more round, and the final round forces a decision.
type MultiRoundConfig struct {
	Range     float64 // indecision half-width in side-count difference
	MaxRounds int
	Shots     int
	Seed      int64
}

// DefaultMultiRoundConfig is tuned so the multi-round unit matches the 8-round
// bin-counting error while finishing ~40% sooner on average (Fig. 19).
func DefaultMultiRoundConfig() MultiRoundConfig {
	return MultiRoundConfig{Range: 40, MaxRounds: 8, Shots: 400000, Seed: 11}
}

// MultiRoundResult reports the sequential decision unit's performance.
type MultiRoundResult struct {
	Error          float64 `json:"error"`            // misclassification probability
	MeanRounds     float64 `json:"mean_rounds"`      // expected rounds used
	MeanTime       float64 `json:"mean_time"`        // ring-up + expected rounds (seconds)
	FracDecidedBy3 float64 `json:"frac_decided_by3"` // fraction of shots decided within 3 rounds
	Speedup        float64 `json:"speedup"`          // 1 - MeanTime/full-integration time
	// Status flags truncation/convergence for the context-aware entry point.
	Status simrun.Status `json:"status"`
}

// MultiRoundTally is the multi-round MC's per-shard accumulator. Fields
// are exported so the accumulator JSON round-trips bit-exactly through
// checkpoint/resume (internal/checkpoint) and the distributed shard-result
// wire format (internal/dist).
type MultiRoundTally struct{ Errs, TotalRounds, DecidedBy3 int }

// MultiRoundCore validates and normalizes the multi-round MC configuration
// and returns (normalized cfg, per-shard sampler, in-order merge) — the
// pieces a distributed executor needs to run an arbitrary shard window of
// this model and fold it bit-identically to a local run.
func MultiRoundCore(c Chain, t Timing, cfg MultiRoundConfig) (MultiRoundConfig, simrun.ShardFunc[MultiRoundTally], func(*MultiRoundTally, MultiRoundTally), error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 400000
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = t.MaxRounds
	}
	if cfg.MaxRounds <= 0 || t.RoundSamples <= 0 {
		return cfg, nil, nil, simerr.Invalidf("readout: timing needs positive MaxRounds and RoundSamples (got %d, %d)",
			cfg.MaxRounds, t.RoundSamples)
	}
	if math.IsNaN(cfg.Range) || cfg.Range < 0 {
		return cfg, nil, nil, simerr.Invalidf("readout: decision range %v must be >= 0", cfg.Range)
	}
	q := c.perSampleCorrectProb()
	m := float64(t.RoundSamples)
	mu := m * (2*q - 1)
	sigma := 2 * math.Sqrt(m*q*(1-q))

	run := func(task *simrun.ShardTask) (MultiRoundTally, int, error) {
		var tl MultiRoundTally
		for s := 0; task.Continue(s); s++ {
			// Decay time in units of rounds (only matters for prepared
			// |1>, half of shots; we model the symmetric average by
			// applying to all shots with half weight via alternating
			// preparation — keyed to the GLOBAL shot index so the
			// preparation sequence is shard-layout invariant).
			prepared1 := task.GlobalShot(s)%2 == 1
			decayRound := math.Inf(1)
			if prepared1 && task.RNG.Float64() < c.DecayProb {
				decayRound = task.RNG.Float64() * float64(t.MaxRounds)
			}
			var diff float64
			rounds := 0
			decided := false
			var wrong bool
			if math.IsInf(decayRound, 1) {
				// No decay this shot (the overwhelmingly common case): the
				// per-round mean is always +mu, so skip the decay-window
				// comparisons. One NormFloat64 per executed round with the
				// same stop rule — the draw sequence is unchanged.
				for r := 0; r < cfg.MaxRounds; r++ {
					diff += mu + sigma*task.RNG.NormFloat64()
					rounds = r + 1
					if math.Abs(diff) > cfg.Range || r == cfg.MaxRounds-1 {
						wrong = diff < 0
						decided = true
						break
					}
				}
			} else {
				for r := 0; r < cfg.MaxRounds; r++ {
					rmu := mu
					// After decay the signal flips sign for a prepared |1>.
					if float64(r) >= decayRound {
						rmu = -mu
					} else if float64(r+1) > decayRound && float64(r) < decayRound {
						f := decayRound - float64(r)
						rmu = mu * (2*f - 1)
					}
					diff += rmu + sigma*task.RNG.NormFloat64()
					rounds = r + 1
					if math.Abs(diff) > cfg.Range || r == cfg.MaxRounds-1 {
						wrong = diff < 0
						decided = true
						break
					}
				}
			}
			if !decided {
				wrong = diff < 0
				rounds = cfg.MaxRounds
			}
			if wrong {
				tl.Errs++
			}
			tl.TotalRounds += rounds
			if rounds <= 3 {
				tl.DecidedBy3++
			}
		}
		return tl, tl.Errs, nil
	}
	merge := func(dst *MultiRoundTally, src MultiRoundTally) {
		dst.Errs += src.Errs
		dst.TotalRounds += src.TotalRounds
		dst.DecidedBy3 += src.DecidedBy3
	}
	return cfg, run, merge, nil
}

// MultiRoundResultFrom assembles the multi-round result from a folded
// tally and the run's status — shared by the local path and the
// distributed merge so both produce identical result bytes.
func MultiRoundResultFrom(t Timing, sum MultiRoundTally, status simrun.Status) MultiRoundResult {
	res := MultiRoundResult{Status: status}
	if status.Completed > 0 {
		n := float64(status.Completed)
		mr := float64(sum.TotalRounds) / n
		res.Error = float64(sum.Errs) / n
		res.MeanRounds = mr
		res.MeanTime = t.TotalTime(mr)
		res.FracDecidedBy3 = float64(sum.DecidedBy3) / n
		full := t.TotalTime(float64(t.MaxRounds))
		if full > 0 {
			res.Speedup = 1 - res.MeanTime/full
		}
	}
	return res
}

// MultiRoundErrorCtx Monte-Carlo simulates the sequential test at round
// granularity: each round's side-count difference increment is
// Normal(m(2q-1), 4mq(1-q)) for m samples with per-sample correctness q,
// with decay events injected at exponential times. Cancellation stops the
// shot loop at the next check interval and returns the partial,
// Truncated-flagged statistics over the completed shots.
func MultiRoundErrorCtx(ctx context.Context, c Chain, t Timing, cfg MultiRoundConfig, opt simrun.Options) (MultiRoundResult, error) {
	cfg, run, merge, err := MultiRoundCore(c, t, cfg)
	if err != nil {
		return MultiRoundResult{}, err
	}
	sum, status, gerr := simrun.RunSharded(ctx, cfg.Shots, cfg.Seed, opt, run, merge)
	if gerr != nil {
		return MultiRoundResult{}, gerr
	}
	return MultiRoundResultFrom(t, sum, status), nil
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
