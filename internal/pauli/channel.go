package pauli

import (
	"context"
	"math"

	"qisim/internal/cmath"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// KrausChannel is a completely positive map given by Kraus operators.
type KrausChannel struct {
	Ops []*cmath.Matrix
}

// Apply returns E(ρ) = Σ K ρ K†.
func (c KrausChannel) Apply(rho *cmath.Matrix) *cmath.Matrix {
	out := cmath.NewMatrix(rho.Rows, rho.Cols)
	for _, k := range c.Ops {
		term := cmath.Mul(cmath.Mul(k, rho), cmath.Dagger(k))
		cmath.AddInPlace(out, 1, term)
	}
	return out
}

// DecoherenceChannel builds the single-qubit T1/T2 channel over duration t:
// amplitude damping with γ = 1 − e^{−t/T1} composed with pure dephasing so
// the off-diagonals decay as e^{−t/T2} (requires T2 ≤ 2·T1).
func DecoherenceChannel(t, t1, t2 float64) KrausChannel {
	gamma := 1 - math.Exp(-t/t1)
	// Off-diagonal decay from amplitude damping alone is √(1−γ) = e^{−t/2T1};
	// pure dephasing supplies the rest of e^{−t/T2}.
	target := math.Exp(-t / t2)
	fromAD := math.Sqrt(1 - gamma)
	lam := 0.0
	if fromAD > 0 {
		r := target / fromAD
		if r < 1 {
			lam = 1 - r*r // dephasing parameter: off-diag × √(1−λ)
		}
	}
	k0 := cmath.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Sqrt((1-gamma)*(1-lam)), 0)},
	})
	k1 := cmath.FromRows([][]complex128{
		{0, complex(math.Sqrt(gamma), 0)},
		{0, 0},
	})
	k2 := cmath.FromRows([][]complex128{
		{0, 0},
		{0, complex(math.Sqrt((1-gamma)*lam), 0)},
	})
	return KrausChannel{Ops: []*cmath.Matrix{k0, k1, k2}}
}

// cardinalStates returns the six single-qubit 2-design states.
func cardinalStates() [][]complex128 {
	s := complex(1/math.Sqrt2, 0)
	return [][]complex128{
		{1, 0},
		{0, 1},
		{s, s},
		{s, -s},
		{s, 1i * s},
		{s, -1i * s},
	}
}

// AverageChannelFidelity computes F_avg = mean over the six cardinal states
// of ⟨ψ|E(|ψ⟩⟨ψ|)|ψ⟩ — an exact 2-design average, the first-principles
// counterpart of gateerror.DecoherenceFidelity.
func AverageChannelFidelity(c KrausChannel) float64 {
	var sum float64
	for _, psi := range cardinalStates() {
		rho := outer(psi)
		rho2 := c.Apply(rho)
		sum += real(expectation(rho2, psi))
	}
	return sum / 6
}

// TrajectoryResult is a context-aware trajectory-MC outcome: Fidelity is the
// mean over the completed shots; Status flags truncation.
type TrajectoryResult struct {
	Fidelity float64       `json:"fidelity"`
	Status   simrun.Status `json:"status"`
}

// TrajectoryAverageFidelityCtx estimates the average channel fidelity by
// Monte-Carlo quantum trajectories, sampling a Kraus outcome per shot:
// cancellation stops the shot loop and returns the best-so-far mean fidelity
// over the completed shots, flagged Truncated. Non-finite fidelity
// accumulation (a corrupted Kraus operator) surfaces as ErrNumerical rather
// than a silent garbage number.
func TrajectoryAverageFidelityCtx(ctx context.Context, c KrausChannel, shots int, seed int64, opt simrun.Options) (TrajectoryResult, error) {
	if len(c.Ops) == 0 {
		return TrajectoryResult{}, simerr.Invalidf("pauli: channel has no Kraus operators")
	}
	for i, k := range c.Ops {
		if !k.IsFinite() {
			return TrajectoryResult{}, simerr.Numericalf("pauli: Kraus operator %d contains NaN/Inf", i)
		}
	}
	states := cardinalStates()
	// Shard bodies: each shard accumulates its own partial fidelity sum on
	// its private RNG stream; the in-shard-order merge keeps the floating
	// point accumulation deterministic for every worker count. The cardinal
	// state cycles over the GLOBAL shot index so the state sequence is
	// independent of the shard layout's execution order.
	sum, status, gerr := simrun.RunSharded(ctx, shots, seed, opt,
		func(t *simrun.ShardTask) (float64, int, error) {
			var partial float64
			kpsi := make([]complex128, c.Ops[0].Rows) // per-shard K·ψ scratch
			for s := 0; t.Continue(s); s++ {
				psi := states[t.GlobalShot(s)%len(states)]
				// Outcome probabilities p_k = ⟨ψ|K†K|ψ⟩.
				r := t.RNG.Float64()
				var acc float64
				for _, k := range c.Ops {
					k.ApplyToInto(kpsi, psi)
					p := 0.0
					for _, a := range kpsi {
						p += real(a)*real(a) + imag(a)*imag(a)
					}
					acc += p
					if r < acc || acc >= 1-1e-12 {
						cmath.NormalizeVec(kpsi)
						ov := cmath.Overlap(psi, kpsi)
						partial += real(ov)*real(ov) + imag(ov)*imag(ov)
						break
					}
				}
			}
			// No binomial statistic: the estimator is a mean, not a rate.
			return partial, -1, nil
		},
		func(dst *float64, src float64) { *dst += src })
	if gerr != nil {
		return TrajectoryResult{}, gerr
	}
	if err := cmath.CheckFiniteScalar("TrajectoryAverageFidelityCtx sum", sum); err != nil {
		return TrajectoryResult{}, err
	}
	res := TrajectoryResult{Status: status}
	if status.Completed > 0 {
		res.Fidelity = sum / float64(status.Completed)
	}
	return res, nil
}

func outer(psi []complex128) *cmath.Matrix {
	n := len(psi)
	m := cmath.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, psi[i]*conj(psi[j]))
		}
	}
	return m
}

func expectation(rho *cmath.Matrix, psi []complex128) complex128 {
	v := rho.ApplyTo(psi)
	return cmath.Overlap(psi, v)
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
