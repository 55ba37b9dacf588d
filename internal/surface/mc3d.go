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

// maxRounds bounds the noisy rounds of a phenomenological run. A shot's
// event list grows by up to nz events per round, and a shot runs to its end
// once started, so this bounds one shot's memory and time.
const maxRounds = 1000

// PhenomenologicalCore validates the phenomenological-MC parameters and
// returns the per-shard sampler plus its in-order merge — the pieces a
// distributed executor needs to run an arbitrary shard window of this
// model and fold it bit-identically to a local run. The returned ShardFunc
// closes over read-only decoder state and is safe for concurrent shards.
func PhenomenologicalCore(d int, p, q float64, rounds int) (simrun.ShardFunc[int], func(*int, int), error) {
	if err := checkMCParams(d, p, q); err != nil {
		return nil, nil, err
	}
	if rounds < 1 || rounds > maxRounds {
		return nil, nil, simerr.Invalidf("surface: rounds must be in [1, %d], got %d", maxRounds, rounds)
	}
	g := newGraph(NewPatch(d)) // read-only after construction: shared across shards
	nd, nz := len(g.edges), len(g.b)
	pc, qc := simrun.NewCoin(p), simrun.NewCoin(q)

	run := func(t *simrun.ShardTask) (int, int, error) {
		// All per-shot state is hoisted and reused across the shot loop.
		// Each round draws its nd data trials, then its nz measurement
		// trials, as blocks of Bernoulli trials on the shard's stream.
		syn := make([]bool, nz) // the syndrome of the data errors
		prevMeas := make([]bool, nz)
		hits := make([]int32, 0, nd)
		events := make([]spacetimeNode, 0, 4*nz)
		sc := g.newScratch()
		f := 0
		for s := 0; t.Continue(s); s++ {
			clear(syn)
			clear(prevMeas)
			events = events[:0]
			flipped := false // the data errors' logical parity

			// steady holds while prevMeas equals syn, as after a round with
			// no measurement error. A round that then adds no data error
			// and no measurement error repeats every measurement: it has no
			// events and changes no state, so it is skipped.
			steady := true
			for r := 0; r < rounds; r++ {
				// New data errors this round, and the syndrome they change.
				hits = t.Hits(hits[:0], nd, pc)
				flipped = flipped != g.flip(syn, hits)
				dataErr := len(hits) > 0
				// Measurement errors: hits lists the flipped ancillas in
				// ascending order.
				hits = t.Hits(hits[:0], nz, qc)
				if steady && !dataErr && len(hits) == 0 {
					continue
				}
				steady = len(hits) == 0
				k := 0
				for z := 0; z < nz; z++ {
					meas := syn[z]
					if k < len(hits) && int(hits[k]) == z {
						meas = !meas
						k++
					}
					if meas != prevMeas[z] {
						events = append(events, spacetimeNode{z: z, t: r})
					}
					prevMeas[z] = meas
				}
			}
			// Final perfect round: it measures syn, which a steady history
			// measured last round already.
			for z := 0; !steady && z < nz; z++ {
				if syn[z] != prevMeas[z] {
					events = append(events, spacetimeNode{z: z, t: rounds})
				}
			}

			if g.match(sc, events, maxExactSpacetime) != flipped {
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
// time-like segments flip nothing (they explain measurement errors). A shot
// fails when the matching's logical parity differs from its data errors'.
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

// PhenomenologicalThresholdCtx locates the p = q crossing point of the d
// and d+2 curves by bisection — the phenomenological threshold (literature:
// ~2.9–3.3% for matching decoders). On cancellation it returns the current
// bracket midpoint as a Truncated best-so-far estimate with the number of
// completed bisection steps.
func PhenomenologicalThresholdCtx(ctx context.Context, d, rounds, shots int, seed int64, opt simrun.Options) (ThresholdResult, error) {
	if err := checkMCParams(d); err != nil {
		return ThresholdResult{}, err
	}
	if err := checkMCParams(d + 2); err != nil { // the bisection's larger code
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
