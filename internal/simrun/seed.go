package simrun

import (
	"math/rand"
	"reflect"
	"sync"
	"unsafe"
)

// Seeding of the per-shard Go-1 RNG streams.
//
// Every shard stream — the engine's and NewShardTask's — is a pooled
// math/rand Rand put into the exact state rand.New(rand.NewSource(seed))
// starts in, so the bitstream, and therefore every Monte-Carlo result, is
// that of a fresh stream. Rand.Seed runs ~1900 Lehmer-LCG steps through a
// Schrage division; at the small shard sizes the Monte-Carlo consumers use,
// that is a visible share of a shard. fastSeedState writes the same state
// with the division replaced by a Mersenne-prime shift-add reduction (about
// 2× faster end to end). The unexported rngCooked xor-table it needs is
// recovered at init by seeding a donor source and xoring the known LCG chain
// back out of its state.
//
// The fast fill writes math/rand's Rand and rngSource through their memory
// layout (frozen since Go 1). fastSeedUsable proves the layout with
// reflection, then proves behaviour on a set of probe seeds: the fill must
// reproduce stdlib Seed's full source state, and a Rand with dirty read
// state, fast-seeded, must draw exactly what a fresh stream draws. Any
// mismatch makes seedShardRNG fall back to Rand.Seed, so a stdlib change can
// only cost speed, never correctness. The determinism suites (parallel
// equivalence, goldens, golden-first-draw pins) cover the fast path end to
// end.

const rngLen = 607

// rngState mirrors math/rand.rngSource.
type rngState struct {
	tap, feed int
	vec       [rngLen]int64
}

const lcgMod = 1<<31 - 1 // 2^31-1, the Lehmer modulus of seedrand

var (
	fastSeedOnce sync.Once
	fastSeedOK   bool
	offSrc       uintptr       // offset of Rand.src (interface)
	offReadVal   uintptr       // offset of Rand.readVal (int64)
	offReadPos   uintptr       // offset of Rand.readPos (int8)
	cookedRec    [rngLen]int64 // recovered math/rand rngCooked table
	postTap      int           // rngSource tap immediately after Seed
	postFeed     int           // rngSource feed immediately after Seed
)

// rngPool recycles the ~5 KiB Go-1 source state behind each shard's private
// stream. Seeding resets the whole source and the Rand's cached read state,
// so a pooled, re-seeded Rand emits the bitstream of a fresh one.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// shardRNG returns a pooled Rand seeded with seed. The engine puts it back
// into rngPool once its shard is done.
func shardRNG(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	seedShardRNG(r, seed)
	return r
}

// seedShardRNG puts r, a Rand over a rand.NewSource source, into the exact
// state rand.New(rand.NewSource(seed)) starts in.
func seedShardRNG(r *rand.Rand, seed int64) {
	if !fastSeedUsable() {
		r.Seed(seed)
		return
	}
	fastSeed(r, seed)
}

// fastSeed is Rand.Seed through the fast fill: the source state, plus the
// Rand's cached Read bytes cleared as Rand.Seed clears them. Only valid
// once fastSeedUsable has proved the layout.
func fastSeed(r *rand.Rand, seed int64) {
	fastSeedState(srcState(r), seed)
	*(*int64)(unsafe.Add(unsafe.Pointer(r), offReadVal)) = 0
	*(*int8)(unsafe.Add(unsafe.Pointer(r), offReadPos)) = 0
}

// lcgStep computes 48271*x mod 2^31-1, the seedrand recurrence, using the
// Mersenne-prime identity 2^31 ≡ 1 (mod 2^31-1) instead of Schrage division.
func lcgStep(x uint32) uint32 {
	p := uint64(x) * 48271
	v := uint32(p&lcgMod) + uint32(p>>31)
	if v >= lcgMod {
		v -= lcgMod
	}
	return v
}

// seedChainStart maps a seed through rngSource.Seed's preprocessing and the
// 20 warm-up LCG steps, returning the chain value just before the vec fill.
func seedChainStart(seed int64) uint32 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint32(seed)
	for i := 0; i < 20; i++ {
		x = lcgStep(x)
	}
	return x
}

// fastSeedState writes into st the exact state rngSource.Seed(seed)
// produces, given the recovered cookedRec table and post-Seed tap/feed.
func fastSeedState(st *rngState, seed int64) {
	x := seedChainStart(seed)
	for i := 0; i < rngLen; i++ {
		x = lcgStep(x)
		u := int64(x) << 40
		x = lcgStep(x)
		u ^= int64(x) << 20
		x = lcgStep(x)
		u ^= int64(x)
		st.vec[i] = u ^ cookedRec[i]
	}
	st.tap = postTap
	st.feed = postFeed
}

// srcState returns the *rngState behind r's source, or nil if r does not
// wrap a plain Go-1 rngSource.
func srcState(r *rand.Rand) *rngState {
	iface := (*[2]unsafe.Pointer)(unsafe.Add(unsafe.Pointer(r), offSrc))
	if iface[1] == nil {
		return nil
	}
	return (*rngState)(iface[1])
}

// fastSeedUsable validates layout and behaviour once.
func fastSeedUsable() bool {
	fastSeedOnce.Do(func() {
		rt := reflect.TypeOf(rand.Rand{})
		fSrc, ok1 := rt.FieldByName("src")
		fVal, ok2 := rt.FieldByName("readVal")
		fPos, ok3 := rt.FieldByName("readPos")
		if !ok1 || !ok2 || !ok3 ||
			fSrc.Type.Kind() != reflect.Interface ||
			fVal.Type.Kind() != reflect.Int64 ||
			fPos.Type.Kind() != reflect.Int8 {
			return
		}
		offSrc, offReadVal, offReadPos = fSrc.Offset, fVal.Offset, fPos.Offset

		// The source must be a pointer to a struct laid out like rngState.
		st := reflect.TypeOf(rand.NewSource(1))
		if st.Kind() != reflect.Pointer || st.Elem().Kind() != reflect.Struct ||
			st.Elem().Size() != unsafe.Sizeof(rngState{}) {
			return
		}
		et := st.Elem()
		if et.NumField() != 3 {
			return
		}
		if et.Field(0).Type.Kind() != reflect.Int || et.Field(0).Offset != unsafe.Offsetof(rngState{}.tap) ||
			et.Field(1).Type.Kind() != reflect.Int || et.Field(1).Offset != unsafe.Offsetof(rngState{}.feed) ||
			et.Field(2).Type != reflect.TypeOf([rngLen]int64{}) || et.Field(2).Offset != unsafe.Offsetof(rngState{}.vec) {
			return
		}

		// Recover rngCooked: while the table is still zero the fill yields
		// the bare LCG chain, which xors back out of a seeded donor.
		donor := rand.New(rand.NewSource(1))
		dp := srcState(donor)
		if dp == nil {
			return
		}
		const recSeed = 20240601
		donor.Seed(recSeed)
		postTap, postFeed = dp.tap, dp.feed
		var tmp rngState
		fastSeedState(&tmp, recSeed)
		for i := range cookedRec {
			cookedRec[i] = dp.vec[i] ^ tmp.vec[i]
		}

		// Behavioural probe: the fill must reproduce stdlib Seed's full
		// source state, and a fast-seeded Rand whose read state was dirty
		// must draw exactly what a fresh stream draws, for every draw kind
		// the consumers use and for Read's cached bytes.
		got := rand.New(rand.NewSource(9))
		var gb, wb [11]byte
		for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -987654321, recSeed} {
			donor.Seed(seed)
			fastSeedState(&tmp, seed)
			if tmp != *dp {
				return
			}
			got.Read(gb[:3]) // leave cached Read bytes behind
			fastSeed(got, seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 64; i++ {
				got.Read(gb[:])
				want.Read(wb[:])
				if gb != wb || got.Uint64() != want.Uint64() || got.Float64() != want.Float64() ||
					got.NormFloat64() != want.NormFloat64() {
					return
				}
			}
		}
		fastSeedOK = true
	})
	return fastSeedOK
}
