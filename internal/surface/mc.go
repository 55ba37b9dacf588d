package surface

import (
	"context"
	"math"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// DecoderResult summarises a Monte-Carlo logical-error estimate. Shots is
// the number actually completed: when Status.Truncated is set the result is
// a best-so-far partial estimate over those shots, not garbage.
type DecoderResult struct {
	Shots    int `json:"shots"`
	Failures int `json:"failures"`
	// Status flags truncation and convergence.
	Status simrun.Status `json:"status"`
}

// Rate returns the logical error estimate.
func (r DecoderResult) Rate() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Shots)
}

// decodeWith matches the flipped syndromes, each a detection event at
// t = 0 so the pair cost is the spatial path length, against each other or
// the boundary at minimum total weight (exact up to 16 flipped syndromes,
// ample below threshold, greedy beyond) and returns whether the correction
// flips the logical qubit.
func (g *graph) decodeWith(sc *decodeScratch, syndrome []bool) bool {
	ev := sc.events[:0]
	for z, s := range syndrome {
		if s {
			ev = append(ev, spacetimeNode{z: z})
		}
	}
	sc.events = ev
	return g.match(sc, ev, maxExactCapacity)
}

// maxMCDistance bounds the distance of every MC run. Each run builds the
// decoding graph, whose two node-to-node tables hold nz² entries with
// nz = (d²−1)/2, so its memory grows as d⁴: 8.4 MB at d = 51, gigabytes
// at d = 201, where a failed allocation kills the whole process, not just
// the request.
const maxMCDistance = 51

// checkMCParams validates the shared MC arguments.
func checkMCParams(d int, probs ...float64) error {
	if d < 3 || d%2 == 0 {
		return simerr.Invalidf("surface: distance must be odd and >= 3, got %d", d)
	}
	if d > maxMCDistance {
		return simerr.Invalidf("surface: MC distance %d above the limit %d", d, maxMCDistance)
	}
	for _, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return simerr.Invalidf("surface: error probability %v outside [0,1]", p)
		}
	}
	return nil
}

// MonteCarloLogicalErrorCtx estimates the code-capacity logical X error
// rate of a distance-d patch under i.i.d. X errors of probability p, using
// the matching decoder (exact up to 16 flipped syndromes, greedy beyond).
// It validates the Projection's
// (p/p_th)^((d+1)/2) scaling; the paper's timing-dependent effects enter
// through ErrorParams.
//
// The run executes on the sharded parallel engine: the shot budget is partitioned
// into fixed-size shards with independent deterministic RNG streams
// (simrun.ShardSeed), run on opt.Workers goroutines (default GOMAXPROCS),
// and merged in shard order — the estimate is bit-identical for every
// worker count. Cancellation or deadline expiry keeps the completed shard
// prefix as a partial, Truncated-flagged estimate; opt can also enable the
// cross-shard standard-error convergence guard.
func MonteCarloLogicalErrorCtx(ctx context.Context, d int, p float64, shots int, seed int64, opt simrun.Options) (DecoderResult, error) {
	if err := checkMCParams(d, p); err != nil {
		return DecoderResult{}, err
	}
	g := newGraph(NewPatch(d)) // read-only after construction: shared across shards
	failures, status, gerr := simrun.RunSharded(ctx, shots, seed, opt, g.capacityShard(p, g.decodeWith),
		func(dst *int, src int) { *dst += src })
	if gerr != nil {
		return DecoderResult{}, gerr
	}
	return DecoderResult{Shots: status.Completed, Failures: failures, Status: status}, nil
}

// capacityShard returns the code-capacity shard sampler: each shot flips
// every data qubit with probability p, decodes the syndrome with decoder,
// and counts a failure when the correction's logical parity differs from
// the error's. All per-shot state (syndrome, hits, decoder scratch) is
// hoisted out of the shot loop, which allocates nothing.
func (g *graph) capacityShard(p float64, decoder func(sc *decodeScratch, syndrome []bool) bool) simrun.ShardFunc[int] {
	nd := len(g.edges)
	coin := simrun.NewCoin(p)
	return func(t *simrun.ShardTask) (int, int, error) {
		hits := make([]int32, 0, nd)
		sc := g.newScratch()
		f := 0
		for i := 0; t.Continue(i); i++ {
			hits = t.Hits(hits[:0], nd, coin)
			if len(hits) == 0 {
				continue
			}
			clear(sc.syn)
			flipped := g.flip(sc.syn, hits)
			if decoder(sc, sc.syn) != flipped {
				f++
			}
		}
		return f, f, nil
	}
}

// ThresholdResult is the outcome of a threshold bisection: when Truncated is
// set, Estimate is the best-so-far bracket midpoint after Iterations
// completed bisection steps.
type ThresholdResult struct {
	Estimate   float64       `json:"estimate"`
	Iterations int           `json:"iterations"`
	Status     simrun.Status `json:"status"`
}

// ThresholdEstimateCtx locates the crossing point of the d and d+2 logical
// error curves by bisection over p — a coarse decoder-threshold probe. Each
// bisection step runs two guarded MC estimates; on cancellation the current
// bracket midpoint is returned as a Truncated best-so-far estimate.
func ThresholdEstimateCtx(ctx context.Context, d int, shots int, seed int64, opt simrun.Options) (ThresholdResult, error) {
	if err := checkMCParams(d); err != nil {
		return ThresholdResult{}, err
	}
	if err := checkMCParams(d + 2); err != nil { // the bisection's larger code
		return ThresholdResult{}, err
	}
	lo, hi := 0.005, 0.2
	const iters = 12
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi)
		small, err := MonteCarloLogicalErrorCtx(ctx, d, mid, shots, seed, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if small.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: small.Status}, nil
		}
		large, err := MonteCarloLogicalErrorCtx(ctx, d+2, mid, shots, seed+1, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if large.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: large.Status}, nil
		}
		if large.Rate() < small.Rate() {
			lo = mid // below threshold: bigger code wins
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
