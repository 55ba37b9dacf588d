package surface

import (
	"context"
	"math"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// spacetimeNode is one detection event in the 3D (space × time) syndrome
// history.
type spacetimeNode struct {
	z int // compact Z-ancilla index
	t int // round index
}

// PhenomenologicalCore validates the phenomenological-MC parameters and
// returns the per-shard sampler plus its in-order merge — the pieces a
// distributed executor needs to run an arbitrary shard window of this
// model and fold it bit-identically to a local run. The returned ShardFunc
// closes over read-only decoder state and is safe for concurrent shards.
func PhenomenologicalCore(d int, p, q float64, rounds int) (simrun.ShardFunc[int], func(*int, int), error) {
	if err := checkMCParams(d, p, q); err != nil {
		return nil, nil, err
	}
	if rounds < 1 {
		return nil, nil, simerr.Invalidf("surface: rounds must be >= 1, got %d", rounds)
	}
	patch := NewPatch(d)
	m := newMatcher(patch) // read-only after construction: shared across shards
	nd := patch.DataQubits()
	nz := len(m.zAncillas)

	run := func(t *simrun.ShardTask) (int, int, error) {
		// All per-shot state is hoisted and reused across the shot loop; the
		// loop body performs the same draws and flips in the same order as
		// the allocating version, so results are bit-identical.
		errBuf := make([]bool, nd)
		prevMeas := make([]bool, nz)
		curTrue := make([]bool, nz)
		events := make([]spacetimeNode, 0, 4*nz)
		sc := m.newScratch()
		f := 0
		for s := 0; t.Continue(s); s++ {
			for i := range errBuf {
				errBuf[i] = false
			}
			for i := range prevMeas {
				prevMeas[i] = false
			}
			events = events[:0]

			for r := 0; r < rounds; r++ {
				// New data errors this round.
				for qb := 0; qb < nd; qb++ {
					if t.RNG.Float64() < p {
						errBuf[qb] = !errBuf[qb]
					}
				}
				m.syndromeInto(curTrue, errBuf)
				for z := 0; z < nz; z++ {
					meas := curTrue[z]
					if t.RNG.Float64() < q {
						meas = !meas
					}
					if meas != prevMeas[z] {
						events = append(events, spacetimeNode{z: z, t: r})
					}
					prevMeas[z] = meas
				}
			}
			// Final perfect round.
			m.syndromeInto(curTrue, errBuf)
			for z := 0; z < nz; z++ {
				if curTrue[z] != prevMeas[z] {
					events = append(events, spacetimeNode{z: z, t: rounds})
				}
			}

			m.decodeSpacetimeWith(sc, errBuf, events)
			if m.logicalFlip(errBuf) {
				f++
			}
		}
		return f, f, nil
	}
	return run, func(dst *int, src int) { *dst += src }, nil
}

// DecoderResultFrom assembles the phenomenological-MC result from a folded
// failure count and the run's status — shared by the local path and the
// distributed merge so both produce identical result bytes.
func DecoderResultFrom(failures int, status simrun.Status) DecoderResult {
	return DecoderResult{Shots: status.Completed, Failures: failures, Status: status}
}

// MonteCarloPhenomenologicalCtx estimates the logical X error rate of a
// distance-d patch over `rounds` noisy ESM rounds: data qubits flip with
// probability p per round and syndrome measurements flip with probability q,
// followed by one final perfect round (the standard phenomenological noise
// model). Decoding matches detection events (syndrome differences between
// consecutive rounds) in space-time: spatial path segments flip data,
// time-like segments flip nothing (they explain measurement errors).
//
// The run executes on the sharded parallel engine: each shard of shots runs
// on its own deterministic RNG stream and the shard results merge in shard
// order, so the estimate is bit-identical for every opt.Workers count.
// Cancellation or deadline expiry keeps the completed shard prefix as a
// partial, Truncated-flagged estimate; opt can enable the cross-shard
// standard-error convergence guard.
func MonteCarloPhenomenologicalCtx(ctx context.Context, d int, p, q float64, rounds, shots int, seed int64, opt simrun.Options) (DecoderResult, error) {
	run, merge, err := PhenomenologicalCore(d, p, q, rounds)
	if err != nil {
		return DecoderResult{}, err
	}
	failures, status, gerr := simrun.RunSharded(ctx, shots, seed, opt, run, merge)
	if gerr != nil {
		return DecoderResult{}, gerr
	}
	return DecoderResultFrom(failures, status), nil
}

// stDist is the space-time decoding metric: spatial Chebyshev distance plus
// the time separation.
func (m *matcher) stDist(a, b spacetimeNode) int {
	dt := a.t - b.t
	if dt < 0 {
		dt = -dt
	}
	return m.dist(a.z, b.z) + dt
}

// stBoundary is the cost of terminating a detection event at the spatial
// boundary (time boundaries are closed off by the final perfect round).
func (m *matcher) stBoundary(a spacetimeNode) int {
	return m.boundaryDist[a.z]
}

// decodeSpacetimeWith matches detection events (exact for <= 14 events,
// greedy beyond) and applies the SPATIAL components of the matched paths as
// data corrections.
func (m *matcher) decodeSpacetimeWith(sc *decodeScratch, err []bool, events []spacetimeNode) {
	m.match(sc, err, events, maxExactSpacetime)
}

// PhenomenologicalThresholdCtx locates the p = q crossing point of the d
// and d+2 curves by bisection — the phenomenological threshold (literature:
// ~2.9–3.3% for matching decoders). On cancellation it returns the current
// bracket midpoint as a Truncated best-so-far estimate with the number of
// completed bisection steps.
func PhenomenologicalThresholdCtx(ctx context.Context, d, rounds, shots int, seed int64, opt simrun.Options) (ThresholdResult, error) {
	if err := checkMCParams(d); err != nil {
		return ThresholdResult{}, err
	}
	lo, hi := 0.002, 0.1
	const iters = 10
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi)
		small, err := MonteCarloPhenomenologicalCtx(ctx, d, mid, mid, rounds, shots, seed, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if small.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: small.Status}, nil
		}
		large, err := MonteCarloPhenomenologicalCtx(ctx, d+2, mid, mid, rounds, shots, seed+1, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if large.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: large.Status}, nil
		}
		if large.Rate() < small.Rate() {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ThresholdResult{
		Estimate:   math.Sqrt(lo * hi),
		Iterations: iters,
		Status:     simrun.Status{Requested: iters, Completed: iters, StopReason: simrun.StopCompleted},
	}, nil
}
