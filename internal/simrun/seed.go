package simrun

import (
	"math/rand"
	"sync"
)

// Seeding of the per-shard Go-1 RNG streams.
//
// Every shard stream — the engine's and NewShardTask's — is a pooled
// math/rand Rand over go1Source, a pure-Go copy of math/rand's Go-1 additive
// lagged-Fibonacci source. Its draws equal those of
// rand.New(rand.NewSource(seed)), so every Monte-Carlo result is that of a
// fresh stdlib stream. A shard draws through two paths on that one stream:
// the Rand, and ShardTask.Hits (coin.go), which runs the source's
// recurrence directly for a block of Bernoulli trials and makes the
// decisions Float64() < p would make from the same words.
//
// What differs is seeding. rngSource.Seed fills all 607 state words through
// a serial chain of ~1,840 Lehmer-LCG steps before the first draw; a small
// shard reads only a fraction of them. go1Source.Seed only records the
// seed, and each state word is computed on its first read, from a power
// table of the LCG multiplier, in three independent multiplications. Draw k
// (k ≤ 334) of a seeded source is the first to read words 334−k and, for
// k ≤ 273, 607−k, so a shard that draws nothing seeds nothing and a shard
// that draws k ≤ 334 times seeds at most 2k words. Words a previous stream
// left behind are never read.
//
// The words also need math/rand's private rngCooked xor table. It is
// recovered at init, without unsafe, from the first 607 outputs of a
// stdlib source (postSeedState), and an init self-check draws from both
// sources and panics on a mismatch.

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed0 = rngLen - rngTap // 334, the feed index right after Seed
	rngMask  = 1<<63 - 1

	lcgMod = 1<<31 - 1 // 2^31-1, the Lehmer modulus of math/rand's seedrand
	lcgMul = 48271     // seedrand's multiplier
)

// go1Source is math/rand's Go-1 source (rngSource) with a lazy Seed. Draw
// for draw it emits what rand.NewSource(seed) emits.
//
// Uint64 and Int63 keep rngSource's body. The first-use test lives in the
// feed index's wrap branch: while feed words are still unread since Seed,
// feed is held at 0, so every draw takes that branch and fresh carries the
// true feed index.
type go1Source struct {
	tap, feed int
	fresh     int    // feed words [0, fresh) have not been read since Seed
	seed      uint64 // the normalised seed, in [1, lcgMod)
	vec       [rngLen]int64
}

// seedWord is what word i of a post-Seed state takes besides the seed: the
// multipliers 48271^n mod (2^31−1) of chain steps n = 21+3i, 22+3i and
// 23+3i, and rngCooked[i].
type seedWord struct {
	pow    [3]uint64
	cooked int64
}

var seedTab [rngLen]seedWord

// mulMod returns a·b mod (2^31−1) for a, b in [1, 2^31−1), reducing with
// the Mersenne-prime identity 2^31 ≡ 1. The product is never a multiple of
// the prime, so after the first fold p lies in [1, 2·lcgMod) and the second
// fold leaves it in [1, lcgMod).
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// Seed records seed with rngSource.Seed's normalisation; the state words
// follow on first use.
func (s *go1Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.fresh = 0, 0, rngFeed0
}

// word returns state word i as rngSource.Seed writes it:
// x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i], where
// x[n] = seed·48271^n mod (2^31−1).
func (s *go1Source) word(i int) int64 {
	w := &seedTab[i]
	u := mulMod(s.seed, w.pow[0])<<40 ^ mulMod(s.seed, w.pow[1])<<20 ^ mulMod(s.seed, w.pow[2])
	return int64(u) ^ w.cooked
}

// Uint64 is rngSource.Uint64. It is nosplit for the reason Int63 is.
//
//go:nosplit
func (s *go1Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return s.wrap()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63, with Uint64's body repeated so a draw makes no
// extra call. The call to wrap in the cold branch would give every draw a
// stack-bound check that rngSource.Int63, a leaf, does not have; nosplit
// drops it, so a draw runs the stdlib's instructions (wrap checks its own
// stack).
//
//go:nosplit
func (s *go1Source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return int64(s.wrap() & rngMask)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// wrap makes a draw whose feed index has just run below zero: an ordinary
// wrap to the top of vec, or one of the first 334 draws after Seed, which
// computes the words it is the first to read.
func (s *go1Source) wrap() uint64 {
	f := s.fresh - 1
	if f < 0 {
		f = rngLen - 1
		s.feed = f
	} else {
		s.fresh, s.feed = f, 0
		s.vec[f] = s.word(f)
		if s.tap >= rngFeed0 {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[f] + s.vec[s.tap]
	s.vec[f] = x
	return uint64(x)
}

// postSeedState recovers the state a Go-1 source holds right after Seed from
// its first 607 outputs o. Draw k reads feed word 334−k (941−k once the feed
// wraps) and tap word 607−k, and stores its output in the feed word, so in
// wrapping int64 arithmetic, with a the post-Seed state:
//
//	o_k = a[334−k] + a[607−k]    for 1 ≤ k ≤ 273
//	o_k = a[334−k] + o_{k−273}   for 274 ≤ k ≤ 334
//	o_k = a[941−k] + o_{k−273}   for 335 ≤ k ≤ 607
//
// The last two give a[0..60] and a[334..606] directly, and then the first
// gives a[61..333].
func postSeedState(src rand.Source64) (a [rngLen]int64) {
	var o [rngLen + 1]int64 // o[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	for k := rngTap + 1; k <= rngFeed0; k++ {
		a[rngFeed0-k] = o[k] - o[k-rngTap]
	}
	for k := rngFeed0 + 1; k <= rngLen; k++ {
		a[rngLen+rngFeed0-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		a[rngFeed0-k] = o[k] - a[rngLen-k]
	}
	return a
}

// init builds seedTab: the chain multipliers, then rngCooked as the xor of a
// stdlib source's post-Seed state with the bare chain words (word while
// cooked is still zero). The self-check then compares a go1Source with a
// stdlib stream on another seed. Besides catching a wrong table, it keeps
// math/rand's Float64 in this package's export data, which is what lets the
// packages that draw through ShardTask.RNG, and do not import math/rand,
// inline it (TestShardDrawsInline pins that).
func init() {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = mulMod(p, lcgMul)
	}
	for i := range seedTab {
		for j := range seedTab[i].pow {
			p = mulMod(p, lcgMul)
			seedTab[i].pow[j] = p
		}
	}

	const donorSeed, checkSeed = 1, 20240601
	a := postSeedState(rand.NewSource(donorSeed).(rand.Source64))
	var s go1Source
	s.Seed(donorSeed)
	for i := range seedTab {
		seedTab[i].cooked = a[i] ^ s.word(i)
	}

	s.Seed(checkSeed)
	got, want := rand.New(&s), rand.New(rand.NewSource(checkSeed))
	for i := 0; i < rngLen; i++ {
		if got.Float64() != want.Float64() || got.NormFloat64() != want.NormFloat64() {
			panic("simrun: go1Source diverges from math/rand's Go-1 source")
		}
	}
}

// shardStream is a shard's private stream: a Rand and the go1Source behind
// it, which ShardTask.Hits draws from directly.
type shardStream struct {
	src go1Source
	rng *rand.Rand
}

// streamPool recycles the ~5 KiB source behind each shard's private stream.
// Re-seeding makes the source read no word of its previous stream and
// clears the Rand's cached Read bytes, so a pooled, re-seeded stream emits
// the bitstream of a fresh one.
var streamPool = sync.Pool{New: func() any {
	st := new(shardStream)
	st.rng = rand.New(&st.src)
	return st
}}

// newShardStream returns a pooled stream whose Rand draws what
// rand.New(rand.NewSource(seed)) draws. The engine puts it back into
// streamPool once its shard is done.
func newShardStream(seed int64) *shardStream {
	st := streamPool.Get().(*shardStream)
	st.rng.Seed(seed)
	return st
}
