package surface

import "math/bits"

// The exact matcher runs on shots with at most this many detection events
// and the greedy matcher beyond. The caps count a whole shot's events, not a
// cluster's.
const (
	maxExactSpacetime = 14 // space-time detection events (phenomenological)
	maxExactCapacity  = 16 // flipped syndromes (code capacity, union-find clusters)
)

// decodeScratch is the per-shard reusable state of the decoders: the
// syndrome and event buffers, the exact matcher's per-decode cost tables
// and memo, and the greedy matcher's used set. A decode against a warm
// scratch allocates nothing.
type decodeScratch struct {
	syn    []bool
	events []spacetimeNode
	used   []bool

	// Per decode: each event's boundary cost, the pair costs (i < j), and
	// each event's useful partners, those strictly cheaper to join than to
	// send both to the boundary.
	bnd    [maxExactCapacity]int32
	pair   [maxExactCapacity][maxExactCapacity]int32
	useful [maxExactCapacity]uint32
	// memo[s] is one plus the optimal cost of the event subset s, or zero
	// when not yet solved; visited lists the entries a decode set, so the
	// reset touches only those.
	memo    []int32
	visited []uint32
}

func (m *matcher) newScratch() *decodeScratch {
	return &decodeScratch{
		syn:  make([]bool, len(m.zAncillas)),
		used: make([]bool, len(m.zAncillas)),
	}
}

// match applies a minimum-weight matching of the events, each to another
// event or to the spatial boundary, as data corrections: exact up to
// exactCap events, greedy beyond.
func (m *matcher) match(sc *decodeScratch, err []bool, ev []spacetimeNode, exactCap int) {
	if len(ev) <= exactCap {
		m.matchExact(sc, err, ev)
	} else {
		m.matchGreedy(sc, err, ev)
	}
}

// matchExact applies, for up to 16 events, exactly the matching the
// whole-set bitmask DP (match_ref_test.go) picks: at each state the lowest
// event i tries the boundary first and then each partner j in ascending
// index, and the first strict minimum wins. It gets there with three
// shortcuts, each skipping only work whose outcome is already decided
// (costs are integers):
//
//   - A pair with w(i,j) ≥ b(i)+b(j) never wins. Its cost w(i,j) +
//     cost(s∖{i,j}) is at least b(i) + cost(s∖{i}), the boundary option,
//     which is tried first and is replaced only on a strict improvement.
//   - Events split into clusters, the connected components of the useful
//     pairs. A subset's optimum is the sum of its clusters' optima, and
//     every comparison inside a cluster differs from the whole-set one by
//     the same constant, the other clusters' cost. Members keep their
//     ascending order, so candidates are tried in the same order.
//   - Each cluster is solved top-down, visiting only the states reachable
//     by removing the lowest member and at most one partner.
//
// A pair move flips the path from the lower-indexed event, as pathFlip is
// not symmetric; the order of the moves does not matter, since every flip
// is an XOR.
func (m *matcher) matchExact(sc *decodeScratch, err []bool, ev []spacetimeNode) {
	n := len(ev)
	if len(sc.memo) < 1<<n {
		sc.memo = make([]int32, 1<<n)
	}
	for i := range ev {
		sc.bnd[i] = int32(m.stBoundary(ev[i]))
		sc.useful[i] = 0
	}
	for i := range ev {
		for j := i + 1; j < n; j++ {
			w := int32(m.stDist(ev[i], ev[j]))
			sc.pair[i][j] = w
			if w < sc.bnd[i]+sc.bnd[j] {
				sc.useful[i] |= 1 << j
				sc.useful[j] |= 1 << i
			}
		}
	}
	var done uint32
	for i := range ev {
		if done&(1<<i) != 0 {
			continue
		}
		cluster := uint32(1) << i
		for grow := cluster; grow != 0; {
			k := bits.TrailingZeros32(grow)
			add := sc.useful[k] &^ cluster
			cluster |= add
			grow = grow&^(1<<k) | add
		}
		done |= cluster
		for s := cluster; s != 0; {
			a := bits.TrailingZeros32(s)
			if _, b := sc.best(s); b < 0 {
				m.boundaryFlip(err, ev[a].z)
				s &^= 1 << a
			} else {
				m.pathFlip(err, ev[a].z, ev[b].z)
				s &^= 1<<a | 1<<b
			}
		}
	}
	for _, s := range sc.visited {
		sc.memo[s] = 0
	}
	sc.visited = sc.visited[:0]
}

// best returns the optimal cost of the event subset s and the move its
// lowest member takes: the partner's index, or -1 for the boundary.
func (sc *decodeScratch) best(s uint32) (int32, int) {
	i := bits.TrailingZeros32(s)
	rest := s &^ (1 << i)
	c, pick := sc.bnd[i]+sc.cost(rest), -1
	for p := sc.useful[i] & rest; p != 0; p &= p - 1 {
		j := bits.TrailingZeros32(p)
		if cj := sc.pair[i][j] + sc.cost(rest&^(1<<j)); cj < c {
			c, pick = cj, j
		}
	}
	return c, pick
}

// cost is best's cost, memoised.
func (sc *decodeScratch) cost(s uint32) int32 {
	if s == 0 {
		return 0
	}
	if c := sc.memo[s]; c != 0 {
		return c - 1
	}
	c, _ := sc.best(s)
	sc.memo[s] = c + 1
	sc.visited = append(sc.visited, s)
	return c
}

// matchGreedy repeatedly applies the cheapest remaining move, a pair or one
// event to the boundary. Ties keep the first move found, scanning the events
// in order and each event's pairs with later events before its boundary.
func (m *matcher) matchGreedy(sc *decodeScratch, err []bool, ev []spacetimeNode) {
	if len(sc.used) < len(ev) {
		sc.used = make([]bool, len(ev))
	}
	used := sc.used[:len(ev)]
	for i := range used {
		used[i] = false
	}
	for {
		best := 1 << 30
		bi, bj := -1, -1
		for x := range ev {
			if used[x] {
				continue
			}
			for y := x + 1; y < len(ev); y++ {
				if used[y] {
					continue
				}
				if c := m.stDist(ev[x], ev[y]); c < best {
					best, bi, bj = c, x, y
				}
			}
			if c := m.stBoundary(ev[x]); c < best {
				best, bi, bj = c, x, -2
			}
		}
		if bi == -1 {
			return
		}
		used[bi] = true
		if bj == -2 {
			m.boundaryFlip(err, ev[bi].z)
		} else {
			used[bj] = true
			m.pathFlip(err, ev[bi].z, ev[bj].z)
		}
	}
}
