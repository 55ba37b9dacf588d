package simrun

// Shard is one fixed-size slice of a Monte-Carlo shot budget. The parallel
// engine partitions a budget of B shots into ceil(B/ShardSize) shards; shard
// i covers global shot indices [Start, Start+N) and owns an independent
// deterministic RNG stream seeded with Seed = ShardSeed(topSeed, i).
//
// Because Seed depends only on (topSeed, Index) — never on which worker runs
// the shard or when — a shard's contribution to the merged result is a pure
// function of the run parameters. Merging shards in Index order therefore
// produces a bit-identical result for every worker count, including the
// serial Workers=1 reference.
type Shard struct {
	// Index is the 0-based shard number.
	Index int
	// Start is the global index of the shard's first shot. Consumers whose
	// per-shot behaviour depends on the global shot index (e.g. alternating
	// state preparation) must use Start+i, not the local loop index, so the
	// behaviour is independent of the shard layout's realisation order.
	Start int
	// N is the number of shots in this shard (the last shard may be short).
	N int
	// Seed is the derived RNG seed for this shard's stream.
	Seed int64
}

// splitmix64 constants (Steele, Lea & Flood, "Fast splittable pseudorandom
// number generators", OOPSLA 2014). GAMMA is the golden-ratio increment; the
// two multipliers are the finalisation mix of the reference implementation.
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	splitmixMulA  = 0xBF58476D1CE4E5B9
	splitmixMulB  = 0x94D049BB133111EB
)

// ShardSeed derives the RNG seed of shard i from the top-level seed with a
// SplitMix64 finalisation step over seed + (i+1)·γ.
//
// Properties the parallel engine (and the property tests) rely on:
//
//   - Pure: the value depends only on (seed, shard) — not on worker
//     scheduling, call order, or any global state.
//   - Injective in shard for a fixed seed: both the γ-increment and the
//     xorshift-multiply finalisation are bijections on uint64, so distinct
//     shards always receive distinct derived seeds. Their math/rand streams
//     are distinct only modulo 2^31−1, since Go-1 Seed first reduces the
//     seed mod 2^31−1: among 100,000 shards of one top seed, about two
//     pairs share a stream (n²/(2·(2^31−1)) ≈ 2.3).
//   - Decorrelated: consecutive shard indices land ~γ apart in the mixed
//     space, so neighbouring shards do not share low-bit structure the way
//     naive seed+i derivation does.
//
// The +1 offset keeps shard 0 from collapsing to a plain finalisation of the
// user seed, so ShardSeed(s, 0) != mix(s) for the common seed=0 case.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*splitmixGamma
	z = (z ^ (z >> 30)) * splitmixMulA
	z = (z ^ (z >> 27)) * splitmixMulB
	z ^= z >> 31
	return int64(z)
}

// shardPlan returns the shard layout for a budget: ceil(budget/size) shards
// of `size` shots each, the last one truncated to the remainder.
func shardPlan(budget, size int, seed int64) []Shard {
	n := (budget + size - 1) / size
	out := make([]Shard, n)
	for i := 0; i < n; i++ {
		start := i * size
		ns := size
		if start+ns > budget {
			ns = budget - start
		}
		out[i] = Shard{Index: i, Start: start, N: ns, Seed: ShardSeed(seed, i)}
	}
	return out
}

// shardShots returns the total shots covered by the first k shards of a
// budget partitioned at `size`.
func shardShots(budget, size, k int) int {
	s := k * size
	if s > budget {
		return budget
	}
	return s
}
