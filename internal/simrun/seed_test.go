package simrun

import (
	"fmt"
	"math/rand"
	"testing"
)

// seedSweep is the seed set of the seeding tests: the edges of Go-1 seed
// normalisation (zero, the modulus 2^31−1 and its neighbours, the seed zero
// maps to, the int64 extremes) plus ordinary seeds, small and full-width.
func seedSweep() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, lcgMod, -lcgMod, lcgMod + 1, 1 << 31, -(1 << 31),
		1 << 62, -(1 << 62), 1<<63 - 1, -1 << 63, 20240601}
	for s := int64(0); len(seeds) < 215; s++ {
		seeds = append(seeds, s*7919-300, ShardSeed(s, int(s)))
	}
	return seeds
}

// seedOffsets are the draw counts after which the seeding tests compare
// streams: the first draws, the edges of the phases in which draws read
// state words for the first time (tap words up to draw 273, feed words up to
// 334, the feed's first wrap at 335, the tap's at 608), and far past them.
var seedOffsets = []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 10000}

// TestSeedShardRNGMatchesFreshStream re-seeds one Rand over a go1Source, as
// newShardStream re-seeds a pooled one, and pins every draw kind against a
// freshly constructed stdlib stream, at draw offsets around each edge of the
// lazy seeding. The Rand's Read cache is left dirty before every re-seed,
// and the source has drawn up to 10,000 times from the previous seed.
func TestSeedShardRNGMatchesFreshStream(t *testing.T) {
	r := rand.New(new(go1Source))
	for _, seed := range seedSweep() {
		for _, off := range seedOffsets {
			r.Read(make([]byte, 3)) // leave cached Read bytes behind
			r.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < off; i++ {
				if i%2 == 0 {
					if g, w := r.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
					}
				} else if g, w := r.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
				}
			}
			for i := 0; i < 4; i++ {
				if g, w := r.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, offset %d: Float64 = %v, want %v", seed, off, g, w)
				}
				if g, w := r.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d, offset %d: NormFloat64 = %v, want %v", seed, off, g, w)
				}
				if g, w := r.Intn(97), want.Intn(97); g != w {
					t.Fatalf("seed %d, offset %d: Intn = %v, want %v", seed, off, g, w)
				}
				if g, w := r.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, offset %d: Int63 = %v, want %v", seed, off, g, w)
				}
				if g, w := r.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d, offset %d: Uint64 = %v, want %v", seed, off, g, w)
				}
				gb, wb := make([]byte, 11), make([]byte, 11)
				r.Read(gb)
				want.Read(wb)
				if string(gb) != string(wb) {
					t.Fatalf("seed %d, offset %d: Read = %x, want %x", seed, off, gb, wb)
				}
			}
		}
		// The engine's path: a pooled stream from newShardStream.
		st, want := newShardStream(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2*rngLen; i++ {
			if g, w := st.rng.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: newShardStream Float64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		streamPool.Put(st)
	}
}

// TestFastSeedStateMatchesStdlib pins every lazily computed state word
// (power table + recovered rngCooked) against the post-Seed state of a
// stdlib source, recovered from its outputs by postSeedState, over the seed
// sweep. A word that differs here would surface in some draw of some seed.
func TestFastSeedStateMatchesStdlib(t *testing.T) {
	var s go1Source
	for _, seed := range seedSweep() {
		want := postSeedState(rand.NewSource(seed).(rand.Source64))
		s.Seed(seed)
		for i := range want {
			if g := s.word(i); g != want[i] {
				t.Fatalf("seed %d: state word %d = %d, want %d", seed, i, g, want[i])
			}
		}
	}
}

var (
	rngSink  float64
	hitsSink []int32
)

// BenchmarkShardRNG times a shard stream's seeding and draws: each op seeds
// a stream and makes n draws from it, through the pooled go1Source
// (newShardStream) and through a fresh stdlib stream as the reference;
// "steady" is one draw from a long-running stream. The Float64 cases draw
// Float64s; the "hits" cases make the same number of p = 0.005 trials
// through ShardTask.Hits, whose outcomes equal those of Float64() < 0.005.
func BenchmarkShardRNG(b *testing.B) {
	var cur *shardStream // the pooled stream of the running op
	streams := []struct {
		name string
		get  func(seed int64) *rand.Rand
		put  func(r *rand.Rand)
	}{
		{"shardRNG", func(seed int64) *rand.Rand { cur = newShardStream(seed); return cur.rng },
			func(*rand.Rand) { streamPool.Put(cur) }},
		{"stdlib", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }, func(*rand.Rand) {}},
	}
	for _, st := range streams {
		for _, n := range []int{0, 96, 1000} {
			b.Run(fmt.Sprintf("%s/draws=%d", st.name, n), func(b *testing.B) {
				sum := 0.0
				for i := 0; i < b.N; i++ {
					r := st.get(ShardSeed(1, i))
					for j := 0; j < n; j++ {
						sum += r.Float64()
					}
					st.put(r)
				}
				rngSink = sum
			})
		}
		b.Run(st.name+"/steady", func(b *testing.B) {
			r := st.get(7)
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += r.Float64()
			}
			st.put(r)
			rngSink = sum
		})
	}
	coin := NewCoin(0.005)
	for _, n := range []int{96, 1000} {
		b.Run(fmt.Sprintf("hits/draws=%d", n), func(b *testing.B) {
			dst := make([]int32, 0, n)
			for i := 0; i < b.N; i++ {
				st := newShardStream(ShardSeed(1, i))
				t := ShardTask{RNG: st.rng, src: &st.src}
				dst = t.Hits(dst[:0], n, coin)
				streamPool.Put(st)
			}
			hitsSink = dst
		})
	}
	b.Run("hits/steady", func(b *testing.B) {
		const block = 1024
		st := newShardStream(7)
		t := ShardTask{RNG: st.rng, src: &st.src}
		dst := make([]int32, 0, block)
		for i := 0; i < b.N; i += block {
			dst = t.Hits(dst[:0], min(block, b.N-i), coin)
		}
		streamPool.Put(st)
		hitsSink = dst
	})
}
