package simrun

// Block Bernoulli draws.
//
// A kernel that samples n independent faults of probability p draws
// t.RNG.Float64() < p n times. Each draw goes through Rand's interface call
// to the source and a float conversion, which is most of what the draw
// costs. ShardTask.Hits makes the same n decisions from the same words of
// the same stream, as integer compares in one loop over go1Source's state.

// redrawFrom is the first 63-bit word Float64 draws again: from 2^63−512 up,
// float64(x) rounds to 2^63, float64(x)/(1<<63) is 1.0, and Float64 takes
// the next word instead.
const redrawFrom = 1<<63 - 512

// Coin is a Bernoulli trial on a shard stream's 63-bit words: a word x below
// redrawFrom lands when x < cut. The zero Coin never lands.
type Coin struct{ cut uint64 }

// NewCoin returns the Coin whose trials land exactly when Float64() < p
// would. Float64 returns float64(x)/(1<<63) for a word x, which is
// non-decreasing in x, so the words it maps below p are a prefix [0, cut)
// of the words it keeps. NewCoin finds cut by bisection over that very
// expression. NaN and p ≤ 0 give a Coin that never lands; a p above the
// largest Float64 value gives one that always does.
func NewCoin(p float64) Coin {
	lo, hi := uint64(0), uint64(redrawFrom) // every x < lo lands, no x in [hi, redrawFrom) does
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Coin{cut: lo}
}

// Hits runs the next n trials of c on the shard's stream and appends the
// index in [0, n) of each trial that lands to dst. Trial i lands exactly
// when the i-th of n successive t.RNG.Float64() < p tests would pass, and
// Hits reads the words those calls would read, redraws included, so draws
// through Hits and through t.RNG interleave freely. With cap(dst)−len(dst)
// ≥ n, Hits allocates nothing.
func (t *ShardTask) Hits(dst []int32, n int, c Coin) []int32 {
	return t.src.hits(dst, n, c.cut, c.cut+rareShift)
}

// rareShift is the number of words Float64 redraws. Adding it to a 63-bit
// word, mod 2^63, moves the redraw words [redrawFrom, 2^63) to the bottom of
// the word range, below every word that lands.
const rareShift = 1<<63 - redrawFrom

// rare returns a word whose bit 63 is set exactly when the 63-bit word of the
// state value v is rare for the coin with lim = cut + rareShift: the word x
// lands (x < cut) or is redrawn (x ≥ redrawFrom). Let
// z = (x + rareShift) mod 2^63. A redrawn x gives z < rareShift, a landing x
// gives z = x + rareShift < lim, and every other x gives z in [lim, 2^63).
// So x is rare exactly when z < lim, and since NewCoin keeps cut ≤ redrawFrom,
// lim ≤ 2^63 and z − lim wraps past 2^63 (setting bit 63) exactly then. The
// mask drops bit 63 of v, so v may be a whole state value.
func rare(v, lim uint64) uint64 { return (v+rareShift)&rngMask - lim }

// hits is Hits on the source: n trials against cut, with lim =
// cut + rareShift. Where the next words wrap neither index and seed no state
// word, it runs the recurrence over the two runs of vec they read, in draw
// order; elsewhere it draws through Int63. lim comes in as an argument
// because, computed here, the compiler folds its constant into every rare
// test, one more instruction per word.
func (s *go1Source) hits(dst []int32, n int, cut, lim uint64) []int32 {
	for i := 0; i < n; {
		if s.feed <= 0 || s.tap <= 0 {
			if x := uint64(s.Int63()); x < redrawFrom {
				if x < cut {
					dst = append(dst, int32(i))
				}
				i++
			}
			continue
		}
		// Draw j of the run reads vec[feed−j] and vec[tap−j] and writes
		// vec[feed−j], as Int63 does. The runs overlap only while the tap
		// index is above the feed index; the loop then reads words it wrote
		// 273 draws earlier, as Int63 would.
		m := min(s.feed, s.tap, n-i)
		f, g := s.vec[s.feed-m:s.feed], s.vec[s.tap-m:s.tap]
		g = g[:len(f)] // lets the compiler drop g's bounds checks
		s.feed -= m
		s.tap -= m
		k := len(f)
		// Four draws per step, with one test for a rare word among them:
		// most words neither land nor are redrawn, so most steps just count
		// four trials. A step with a rare word replays its four words, in
		// draw order, through the word-by-word test below. Each draw of a
		// step writes its word before the next reads; no read of a step
		// sees a write of the same step, as those lie 273 draws apart.
		for ; k >= 4; k -= 4 {
			v0 := f[k-1] + g[k-1]
			f[k-1] = v0
			v1 := f[k-2] + g[k-2]
			f[k-2] = v1
			v2 := f[k-3] + g[k-3]
			f[k-3] = v2
			v3 := f[k-4] + g[k-4]
			f[k-4] = v3
			if (rare(uint64(v0), lim)|rare(uint64(v1), lim)|rare(uint64(v2), lim)|rare(uint64(v3), lim))>>63 == 0 {
				i += 4
				continue
			}
			for j := k - 1; j >= k-4; j-- {
				if x := uint64(f[j]) & rngMask; x < redrawFrom {
					if x < cut {
						dst = append(dst, int32(i))
					}
					i++
				}
			}
		}
		f, g = f[:k], g[:k]
		for k := len(f) - 1; k >= 0; k-- {
			v := f[k] + g[k]
			f[k] = v
			x := uint64(v) & rngMask
			if x >= redrawFrom {
				continue
			}
			if x < cut {
				dst = append(dst, int32(i))
			}
			i++
		}
	}
	return dst
}
