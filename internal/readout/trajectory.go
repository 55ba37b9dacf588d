package readout

import (
	"context"
	"math"
	"math/cmplx"

	"qisim/internal/cmath"
	"qisim/internal/ham"
	"qisim/internal/phys"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// TrajectoryConfig drives the slow, physics-level readout Monte-Carlo: full
// cavity trajectories from the dispersive model with per-sample noise, the
// square TX envelope of Section 4.4.4, and T1 decay mid-readout.
type TrajectoryConfig struct {
	Resonator    phys.Resonator
	Qubit        phys.Transmon
	DriveEps     float64 // TX drive amplitude (rad/s)
	SampleRateHz float64
	Timing       Timing
	NoiseSigma   float64 // per-sample IQ noise σ in units of |α| steady state
	Shots        int
	Seed         int64
}

// DefaultTrajectoryConfig returns a setup consistent with DefaultChain.
func DefaultTrajectoryConfig() TrajectoryConfig {
	return TrajectoryConfig{
		Resonator:    phys.DefaultResonator(),
		Qubit:        phys.DefaultTransmon(),
		DriveEps:     2 * math.Pi * 2e6,
		SampleRateHz: 2.5e9,
		Timing:       DefaultTiming(),
		NoiseSigma:   0, // filled from chain SNR when zero
		Shots:        2000,
		Seed:         5,
	}
}

// TrajectoryResult reports the physics-level MC outcome for one decision
// method.
type TrajectoryResult struct {
	BinError    float64 `json:"bin_error"`
	SingleError float64 `json:"single_error"`
	Separation  float64 `json:"separation"` // steady-state pointer separation |α1-α0|
	// Status flags truncation for the context-aware entry point.
	Status simrun.Status `json:"status"`
}

// TrajectoryMCCtx draws full readout records and replays the bin-counting
// and single-point decision units on the same records. It cross-checks the
// fast analytic tier: with the noise scaled to the same per-sample SNR the
// error rates must agree to MC precision. Cancellation stops the shot loop
// and returns the partial, Truncated-flagged error rates over the
// completed shots. A non-finite trajectory (corrupted resonator parameters)
// surfaces as ErrNumerical before any shot runs.
func TrajectoryMCCtx(ctx context.Context, cfg TrajectoryConfig, chain Chain, opt simrun.Options) (TrajectoryResult, error) {
	if cfg.SampleRateHz <= 0 || math.IsNaN(cfg.SampleRateHz) {
		return TrajectoryResult{}, simerr.Invalidf("readout: sample rate %v must be positive", cfg.SampleRateHz)
	}
	if cfg.Timing.MaxRounds <= 0 || cfg.Timing.RoundSamples <= 0 {
		return TrajectoryResult{}, simerr.Invalidf("readout: timing needs positive MaxRounds and RoundSamples")
	}
	r := ham.DispersiveResonator{
		DetuningRad: 0,
		ChiRad:      cfg.Resonator.Chi(),
		KappaRad:    cfg.Resonator.Kappa(),
	}
	dt := 1 / cfg.SampleRateHz
	nRing := int(cfg.Timing.RingUp * cfg.SampleRateHz)
	nSamp := cfg.Timing.MaxRounds * cfg.Timing.RoundSamples
	total := nRing + nSamp

	drive := func(t float64) float64 { return cfg.DriveEps }
	traj0 := r.Trajectory(-1, drive, total, dt)
	traj1 := r.Trajectory(+1, drive, total, dt)

	s0 := r.SteadyState(-1, cfg.DriveEps)
	s1 := r.SteadyState(+1, cfg.DriveEps)
	sep := cmplx.Abs(s1 - s0)
	if err := cmath.CheckFiniteVec("TrajectoryMCCtx pointer states", []complex128{s0, s1}); err != nil {
		return TrajectoryResult{}, err
	}
	if sep == 0 {
		return TrajectoryResult{}, simerr.Numericalf("readout: degenerate pointer states (zero separation)")
	}

	// Discriminating axis: unit vector from α0 to α1; line through midpoint.
	// The projection is inlined in the sample loop via ax/ay.
	axis := (s1 - s0) / complex(sep, 0)
	mid := (s1 + s0) / 2
	ax, ay := real(axis), imag(axis)

	sigma := cfg.NoiseSigma
	if sigma <= 0 {
		sigma = sep / chain.SNRPerSample
	}
	// Per-shot constants hoisted out of the shot loop. negHalfKappa keeps
	// the original -κ/2 · Δk · dt multiplication order so the decay factor
	// rounds identically.
	pDecay := chain.DecayProb * float64(total) / float64(nSamp)
	negHalfKappa := -r.KappaRad / 2

	// The precomputed trajectories and the projection closure are read-only
	// across shards; each shard draws noise from its private RNG stream and
	// alternates preparation on the GLOBAL shot index, so the merged error
	// counts are bit-identical for every worker count.
	// Exported fields: the accumulator must JSON round-trip bit-exactly for
	// checkpoint/resume (internal/checkpoint).
	type tallies struct{ Bin, Single int }
	sum, status, gerr := simrun.RunSharded(ctx, cfg.Shots, cfg.Seed, opt,
		func(task *simrun.ShardTask) (tallies, int, error) {
			var tl tallies
			for s := 0; task.Continue(s); s++ {
				prepared1 := task.GlobalShot(s)%2 == 1
				traj := traj0
				if prepared1 {
					traj = traj1
				}
				// Decay: prepared |1> relaxes at an exponential time;
				// afterwards the cavity relaxes toward the |0> pointer with
				// rate κ/2.
				decayAt := math.Inf(1)
				if prepared1 && task.RNG.Float64() < pDecay {
					decayAt = float64(nRing) + task.RNG.Float64()*float64(nSamp)
				}
				var count, sumProj float64
				used := 0
				for k := nRing; k < total; k++ {
					mean := traj[k]
					if fk := float64(k); fk > decayAt {
						// exponential pull toward the |0> trajectory
						lam := math.Exp(negHalfKappa * (fk - decayAt) * dt)
						mean = traj1[k]*complex(lam, 0) + traj0[k]*complex(1-lam, 0)
					}
					ns := sigma
					if task.RNG.Float64() < chain.OutlierProb {
						ns *= chain.OutlierFactor
					}
					sample := mean + complex(ns*task.RNG.NormFloat64(), ns*task.RNG.NormFloat64())
					d := sample - mid
					p := real(d)*ax + imag(d)*ay
					if p > 0 {
						count++
					}
					sumProj += p
					used++
				}
				majority1 := count > float64(used)/2
				mean1 := sumProj > 0
				if majority1 != prepared1 {
					tl.Bin++
				}
				if mean1 != prepared1 {
					tl.Single++
				}
			}
			return tl, tl.Bin, nil
		},
		func(dst *tallies, src tallies) {
			dst.Bin += src.Bin
			dst.Single += src.Single
		})
	if gerr != nil {
		return TrajectoryResult{}, gerr
	}
	res := TrajectoryResult{Separation: sep, Status: status}
	if status.Completed > 0 {
		res.BinError = float64(sum.Bin) / float64(status.Completed)
		res.SingleError = float64(sum.Single) / float64(status.Completed)
	}
	return res, nil
}
