package simrun

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// wordFloat returns the value Float64 gives word x, by Float64's own expression.
func wordFloat(x uint64) float64 { return float64(int64(x)) / (1 << 63) }

// refHits is what ShardTask.Hits must equal: the indices of the n
// successive r.Float64() < p tests that pass.
func refHits(r *rand.Rand, n int, p float64) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			out = append(out, int32(i))
		}
	}
	return out
}

// coinProbs are the probabilities of the equivalence tests: the edges 0,
// the smallest subnormal, 1 and beyond, ordinary rates, the two sides of
// the cuts of a few words (p = the word's value, which the word fails, and
// the next float up, which it passes), and random values.
func coinProbs() []float64 {
	ps := []float64{0, 5e-324, 0.005, 0.5, 1, math.Nextafter(1, 0), 1.5, -0.25, math.NaN(),
		math.Inf(1), math.Inf(-1)}
	for _, x := range []uint64{1, 2, 1 << 10, 1<<53 + 1, 1 << 60, 1<<62 + 12345, redrawFrom - 1024, redrawFrom - 1} {
		v := wordFloat(x)
		ps = append(ps, v, math.Nextafter(v, 2))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		ps = append(ps, rng.Float64(), math.Pow(10, -6*rng.Float64()))
	}
	return ps
}

// TestNewCoinCut checks the cut against its definition, word x lands iff
// Float64's value for x is below p, on the words around the cut, at both
// ends of the word range, and on the 512 words Float64 redraws, which it
// must exceed none of.
func TestNewCoinCut(t *testing.T) {
	if wordFloat(redrawFrom-1) >= 1 || wordFloat(redrawFrom) != 1 {
		t.Fatalf("redraw boundary misplaced: word 2^63-513 gives %v, 2^63-512 gives %v",
			wordFloat(redrawFrom-1), wordFloat(redrawFrom))
	}
	for _, p := range coinProbs() {
		c := NewCoin(p)
		if c.cut > redrawFrom {
			t.Fatalf("p=%v: cut %d above the redraw words", p, c.cut)
		}
		for _, x := range []uint64{0, 1, c.cut - 2, c.cut - 1, c.cut, c.cut + 1, c.cut + 1024,
			redrawFrom - 1025, redrawFrom - 1} {
			if x >= redrawFrom {
				continue
			}
			if lands, want := x < c.cut, wordFloat(x) < p; lands != want {
				t.Fatalf("p=%v, cut %d: word %d lands = %v, Float64 < p = %v", p, c.cut, x, lands, want)
			}
		}
	}
	if (Coin{}) != NewCoin(0) {
		t.Fatal("the zero Coin is not NewCoin(0)")
	}
}

// hitBlocks are the block lengths of the stream tests. Their running sum
// from a fresh seed, or from a random offset, crosses the 334-draw lazy
// window and the tap's (273) and feed's (607) wraps many times over, and
// the short ones leave every tail of 0 to 3 words after Hits' four-word
// steps.
var hitBlocks = []int{0, 1, 2, 3, 4, 5, 7, 8, 272, 1, 60, 273, 333, 1, 334, 335, 606, 607, 608, 49, 24, 1000}

// TestRareWords checks Hits' four-word test, bit 63 of rare, against its
// definition: word x is rare when it lands (x < cut) or is redrawn
// (x ≥ redrawFrom). It runs every cut of coinProbs on the words at both
// edges of the word range, around the cut and around the redraw set, with
// the top bit of the state value clear and set.
func TestRareWords(t *testing.T) {
	for _, p := range coinProbs() {
		cut := NewCoin(p).cut
		lim := cut + rareShift
		for _, x := range []uint64{0, 1, cut - 1, cut, cut + 1, redrawFrom - 1, redrawFrom, rngMask} {
			x &= rngMask // cut − 1 at cut 0 wraps to the top word
			want := x < cut || x >= redrawFrom
			for _, v := range []uint64{x, x | 1<<63} {
				if got := rare(v, lim)>>63 == 1; got != want {
					t.Fatalf("p=%v, cut %d: word %d (state value %#x) rare = %v, want %v", p, cut, x, v, got, want)
				}
			}
		}
	}
}

// TestHitsMatchFloat64 pins Hits against a Float64() < p loop on a stdlib
// stream of the same seed, over 215 seeds, every probability of coinProbs
// and the block lengths of hitBlocks, starting at a seed-dependent offset.
// Between blocks both streams draw a Float64, a NormFloat64 or nothing; at
// the end they must still be in step.
func TestHitsMatchFloat64(t *testing.T) {
	ps := coinProbs()
	var dst []int32
	for si, seed := range seedSweep() {
		task := NewShardTask(context.Background(), Shard{Seed: seed}, 0)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < si%700; i++ {
			if task.RNG.Float64() != want.Float64() {
				t.Fatalf("seed %d: streams differ before the first block", seed)
			}
		}
		for bi, n := range hitBlocks {
			p := ps[(si+bi)%len(ps)]
			dst = task.Hits(dst[:0], n, NewCoin(p))
			if w := refHits(want, n, p); !slices.Equal(dst, w) {
				t.Fatalf("seed %d, block %d (n=%d, p=%v): Hits = %v, want %v", seed, bi, n, p, dst, w)
			}
			switch (si + bi) % 3 {
			case 1:
				if g, w := task.RNG.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, after block %d: Float64 = %v, want %v", seed, bi, g, w)
				}
			case 2:
				if g, w := task.RNG.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d, after block %d: NormFloat64 = %v, want %v", seed, bi, g, w)
				}
			}
		}
		for i := 0; i < 2*rngLen; i++ {
			if g, w := task.RNG.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: draw %d after the blocks = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// pokeWords sets the next len(xs) 63-bit words of a source past its lazy
// window to xs (a zero entry leaves its word alone), by solving each
// draw's sum for its feed word. It replays the draws on a copy, so a tap
// word the run itself wrote is read as written; len(xs) ≤ 273 keeps every
// feed word unread by earlier draws of the run.
func pokeWords(s *go1Source, xs []uint64) {
	if s.fresh != 0 || len(xs) > rngTap {
		panic("pokeWords: source in its lazy window, or run too long")
	}
	sim := *s
	for _, x := range xs {
		tap, feed := (sim.tap+rngLen-1)%rngLen, (sim.feed+rngLen-1)%rngLen
		if x != 0 {
			v := int64(x) - sim.vec[tap]
			s.vec[feed], sim.vec[feed] = v, v
		}
		sim.Int63()
	}
}

// TestHitsRedraw drives the redraw branch: a hand-built source whose next
// words include ones at or above 2^63−512, which Float64 skips, and words
// just below and at a coin's cut. Each case is placed at offsets that put
// it in the middle of a run, at a run's first or last word and on the wrap
// steps Hits takes through Int63. Hits must pick the trials a Float64 loop
// over a copy of the source picks and leave the source in the same state.
func TestHitsRedraw(t *testing.T) {
	p := 0.005
	cut := NewCoin(p).cut
	cases := [][]uint64{
		{redrawFrom},
		{rngMask},
		{redrawFrom, redrawFrom + 1, rngMask},
		{5, redrawFrom, cut - 1, rngMask, cut, redrawFrom - 1},
		{cut - 1, cut, redrawFrom + 511, 0, cut - 1},
	}
	var base go1Source
	base.Seed(99)
	for i := 0; i < rngFeed0; i++ {
		base.Int63()
	}
	for off := 0; off < 2*rngLen; off++ {
		for ci, xs := range cases {
			src := base
			pokeWords(&src, xs)
			ref := src
			want := refHits(rand.New(&ref), 40, p)
			got := src.hits(nil, 40, cut, cut+rareShift)
			if !slices.Equal(got, want) {
				t.Fatalf("offset %d, case %d: hits = %v, want %v", off, ci, got, want)
			}
			if src != ref {
				t.Fatalf("offset %d, case %d: source out of step after the block", off, ci)
			}
		}
		base.Int63()
	}
}

// TestHitsInEngine runs Hits through the engine's pooled tasks on two
// workers, mixed with RNG draws, and pins every shard against a Float64
// loop on a fresh stdlib stream of the shard's seed.
func TestHitsInEngine(t *testing.T) {
	coin := NewCoin(0.01)
	run := func(task *ShardTask) ([]int32, int, error) {
		var hits []int32
		for i := 0; task.Continue(i); i++ {
			hits = task.Hits(hits, 100, coin)
			hits = append(hits, int32(task.RNG.Intn(1000)))
		}
		return hits, len(hits), nil
	}
	var got [][]int32
	_, _, err := RunSharded(context.Background(), 40, 3, Options{Workers: 2, ShardSize: 8}, run,
		func(_ *[]int32, src []int32) { got = append(got, src) })
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shardPlan(40, 8, 3) {
		r := rand.New(rand.NewSource(sh.Seed))
		var want []int32
		for s := 0; s < sh.N; s++ {
			want = append(want, refHits(r, 100, 0.01)...)
			want = append(want, int32(r.Intn(1000)))
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("shard %d: %v, want %v", i, got[i], want)
		}
	}
}

// TestHitsWarmAllocs pins that Hits into a buffer with room allocates
// nothing.
func TestHitsWarmAllocs(t *testing.T) {
	task := NewShardTask(context.Background(), Shard{Seed: 1}, 0)
	dst := make([]int32, 0, 1000)
	coin := NewCoin(0.5)
	if a := testing.AllocsPerRun(20, func() { dst = task.Hits(dst[:0], 1000, coin) }); a != 0 {
		t.Fatalf("Hits allocates %v times, want 0", a)
	}
}
