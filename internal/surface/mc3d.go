package surface

import (
	"context"
	"math"
	"math/bits"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// spacetimeNode is one detection event in the 3D (space × time) syndrome
// history.
type spacetimeNode struct {
	z int // compact Z-ancilla index
	t int // round index
}

// appendEvents appends a detection event in round r for each set bit of
// word w of an event mask, in ascending z.
func appendEvents(events []spacetimeNode, w int, mask uint64, r int) []spacetimeNode {
	for ; mask != 0; mask &= mask - 1 {
		events = append(events, spacetimeNode{z: w*64 + bits.TrailingZeros64(mask), t: r})
	}
	return events
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
	// The syndrome and each round's measurements are bitmasks of nw words,
	// check z at bit z%64 of word z/64. checks[q*nw:(q+1)*nw] holds data
	// qubit q's Z checks, which a flip of q toggles.
	nw := (nz + 63) / 64
	checks := make([]uint64, nd*nw)
	for q, e := range g.edges {
		for _, z := range e {
			if z != boundary {
				checks[q*nw+int(z)/64] |= 1 << (z % 64)
			}
		}
	}

	run := func(t *simrun.ShardTask) (int, int, error) {
		// All per-shot state is hoisted and reused across the shot loop.
		// Each round draws its nd data trials, then its nz measurement
		// trials, as blocks of Bernoulli trials on the shard's stream.
		syn := make([]uint64, nw)  // the syndrome of the data errors
		prev := make([]uint64, nw) // the last round's measurements
		ev := make([]uint64, nw)   // the round's detection events
		hits := make([]int32, 0, nd)
		events := make([]spacetimeNode, 0, 4*nz)
		sc := g.newScratch()
		f := 0
		for s := 0; t.Continue(s); s++ {
			clear(syn)
			clear(prev)
			events = events[:0]
			flipped := false // the data errors' logical parity

			// steady holds while prev equals syn, as after a round with no
			// measurement error. A round that then adds no data error and
			// no measurement error repeats every measurement: it has no
			// events and changes no state, so it is skipped.
			steady := true
			for r := 0; r < rounds; r++ {
				// New data errors this round, and the syndrome they change.
				// The syndrome is linear over GF(2) in the error, so the
				// flips' order does not matter.
				hits = t.Hits(hits[:0], nd, pc)
				for _, q := range hits {
					c := checks[int(q)*nw:][:len(syn)]
					for w := range c {
						syn[w] ^= c[w]
					}
					flipped = flipped != g.marked[q]
				}
				dataErr := len(hits) > 0
				hits = t.Hits(hits[:0], nz, qc)
				if steady && !dataErr && len(hits) == 0 {
					continue
				}
				steady = len(hits) == 0
				// The round measures syn with the measurement errors in
				// hits flipped. A check whose measurement differs from the
				// last round's is an event: ev is syn ⊕ prev with the
				// errors' bits flipped. The words run in ascending z, and
				// so do the set bits of each.
				for w := range ev {
					ev[w] = syn[w] ^ prev[w]
				}
				for _, z := range hits {
					ev[uint(z)/64] ^= 1 << (uint(z) % 64)
				}
				for w, m := range ev {
					prev[w] ^= m
					events = appendEvents(events, w, m, r)
				}
			}
			// Final perfect round: it measures syn, which a steady history
			// measured last round already.
			if !steady {
				for w := range prev {
					events = appendEvents(events, w, syn[w]^prev[w], rounds)
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
