package simrun

import (
	"math/rand"
	"testing"
)

// TestSeedShardRNGMatchesFreshStream re-seeds one Rand through
// seedShardRNG, as the pool does, and pins every draw kind the consumers use
// against a freshly constructed stream. This is the direct unit guarantee
// behind the engine-level determinism suites, whichever path (fast fill or
// the Rand.Seed fallback) this runtime takes.
func TestSeedShardRNGMatchesFreshStream(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, seed := range []int64{5, -11, 0, 1 << 50, 5} {
		r.Read(make([]byte, 3)) // leave cached Read bytes behind
		seedShardRNG(r, seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 256; i++ {
			if g, w := r.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			if g, w := r.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
			if g, w := r.Intn(97), want.Intn(97); g != w {
				t.Fatalf("seed %d: Intn draw %d = %v, want %v", seed, i, g, w)
			}
		}
		gb, wb := make([]byte, 11), make([]byte, 11)
		r.Read(gb)
		want.Read(wb)
		if string(gb) != string(wb) {
			t.Fatalf("seed %d: Read = %x, want %x", seed, gb, wb)
		}
	}
}

// TestFastSeedStateMatchesStdlib pins the fast fill (recovered rngCooked
// table + shift-add Lehmer step) against the stdlib Seed state, field for
// field, over a seed sweep much wider than the init probe. Any divergence
// here means fastSeedState must be disabled.
func TestFastSeedStateMatchesStdlib(t *testing.T) {
	if !fastSeedUsable() {
		t.Skip("fast seeding disabled on this runtime; engine falls back to plain Seed")
	}
	donor := rand.New(rand.NewSource(1))
	dp := srcState(donor)
	if dp == nil {
		t.Fatal("srcState returned nil for a plain Go-1 source")
	}
	var got rngState
	seeds := []int64{0, 1, -1, 2, 89482311, 1<<31 - 1, 1 << 31, -(1 << 31), 1<<63 - 1, -(1 << 62)}
	for s := int64(0); s < 200; s++ {
		seeds = append(seeds, s*7919-300)
	}
	for _, seed := range seeds {
		donor.Seed(seed)
		fastSeedState(&got, seed)
		if got != *dp {
			t.Fatalf("fastSeedState(%d) diverges from rngSource.Seed", seed)
		}
	}
}
