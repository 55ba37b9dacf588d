package surface

import (
	"math/rand"
	"testing"
)

// shotBuilder turns a phenomenological fault pattern into detection events
// the way PhenomenologicalCore does. flip holds one row per noisy round:
// the round's data-qubit flips, then its measurement flips. A final perfect
// round closes the history.
type shotBuilder struct {
	m              *matcher
	rounds, nd, nz int
	flip, data     []bool
	prev, cur      []bool
	ev             []spacetimeNode
}

func newShotBuilder(d, rounds int) *shotBuilder {
	p := NewPatch(d)
	m := newMatcher(p)
	nd, nz := p.DataQubits(), len(m.zAncillas)
	return &shotBuilder{
		m: m, rounds: rounds, nd: nd, nz: nz,
		flip: make([]bool, rounds*(nd+nz)),
		data: make([]bool, nd),
		prev: make([]bool, nz),
		cur:  make([]bool, nz),
	}
}

// events resets the accumulated data error to the pattern's and returns the
// detection events.
func (b *shotBuilder) events() []spacetimeNode {
	clear(b.data)
	clear(b.prev)
	b.ev = b.ev[:0]
	for r := 0; r < b.rounds; r++ {
		row := b.flip[r*(b.nd+b.nz) : (r+1)*(b.nd+b.nz)]
		for q, f := range row[:b.nd] {
			if f {
				b.data[q] = !b.data[q]
			}
		}
		b.m.syndromeInto(b.cur, b.data)
		for z, f := range row[b.nd:] {
			meas := b.cur[z] != f
			if meas != b.prev[z] {
				b.ev = append(b.ev, spacetimeNode{z: z, t: r})
			}
			b.prev[z] = meas
		}
	}
	b.m.syndromeInto(b.cur, b.data)
	for z := range b.cur {
		if b.cur[z] != b.prev[z] {
			b.ev = append(b.ev, spacetimeNode{z: z, t: b.rounds})
		}
	}
	return b.ev
}

// TestCodeCapacityLeadingOrder pins the number of weight-(d+1)/2 data-error
// patterns the matching decoder fails on, the leading-order coefficient of
// the code-capacity logical error rate. Any change in how the decoder breaks
// ties between equally light corrections moves these counts.
func TestCodeCapacityLeadingOrder(t *testing.T) {
	for _, c := range []struct{ d, patterns, fails int }{
		{3, 36, 18},
		{5, 2300, 292},
		{7, 211876, 4606},
	} {
		m := newMatcher(NewPatch(c.d))
		nd, w := c.d*c.d, (c.d+1)/2
		sc := m.newScratch()
		errBuf := make([]bool, nd)
		picks := make([]int, w)
		patterns, fails := 0, 0
		var rec func(start, k int)
		rec = func(start, k int) {
			if k == w {
				clear(errBuf)
				for _, q := range picks {
					errBuf[q] = true
				}
				m.decodeWith(sc, errBuf, m.syndromeInto(sc.syn, errBuf))
				patterns++
				if m.logicalFlip(errBuf) {
					fails++
				}
				return
			}
			for q := start; q < nd; q++ {
				picks[k] = q
				rec(q+1, k+1)
			}
		}
		rec(0, 0)
		if patterns != c.patterns || fails != c.fails {
			t.Errorf("d=%d: decoder fails %d of %d weight-%d patterns, want %d of %d",
				c.d, fails, patterns, w, c.fails, c.patterns)
		}
	}
}

// TestSpacetimeFaultDistance checks that the space-time decoder corrects
// every fault set of weight ≤ (d−1)/2 over d noisy rounds and the final
// perfect round: data flips and measurement flips at any round. d=7 has
// 22,239,231 such sets, all corrected; enumerating them took 34 s on a
// 2-vCPU Intel Xeon VM (Go 1.24), so the default suite stops at d=5.
func TestSpacetimeFaultDistance(t *testing.T) {
	for _, c := range []struct{ d, sets int }{{3, 39}, {5, 17205}} {
		b := newShotBuilder(c.d, c.d)
		sc := b.m.newScratch()
		sets, fails := 0, 0
		var rec func(start, left int)
		rec = func(start, left int) {
			for k := start; k < len(b.flip) && left > 0; k++ {
				b.flip[k] = true
				ev := b.events()
				b.m.decodeSpacetimeWith(sc, b.data, ev)
				sets++
				if b.m.logicalFlip(b.data) {
					fails++
				}
				rec(k+1, left-1)
				b.flip[k] = false
			}
		}
		rec(0, (c.d-1)/2)
		if sets != c.sets || fails != 0 {
			t.Errorf("d=%d: %d of %d fault sets of weight <= %d not corrected, want 0 of %d",
				c.d, fails, sets, (c.d-1)/2, c.sets)
		}
	}
}

// BenchmarkExactMatch times the space-time matcher alone, over a fixed
// corpus of event lists sampled once (seed 1) from the mc-decode
// configuration: d=7, 7 rounds, p=q=0.005. One op decodes one shot.
func BenchmarkExactMatch(b *testing.B) {
	const d, rounds, p, shots = 7, 7, 0.005, 4096
	sb := newShotBuilder(d, rounds)
	rng := rand.New(rand.NewSource(1))
	corpus := make([][]spacetimeNode, shots)
	for s := range corpus {
		for k := range sb.flip {
			sb.flip[k] = rng.Float64() < p
		}
		corpus[s] = append([]spacetimeNode(nil), sb.events()...)
	}
	sc := sb.m.newScratch()
	errBuf := make([]bool, sb.nd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.m.decodeSpacetimeWith(sc, errBuf, corpus[i%shots])
	}
}
