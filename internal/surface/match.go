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
// and memo, the greedy matcher's used set, and the union-find decoder's
// clusters. A decode against a warm scratch allocates nothing.
type decodeScratch struct {
	syn    []bool
	events []spacetimeNode
	used   []bool

	// The union-find decoder's own buffers, apart from the ones match uses:
	// the defects' nodes in ascending order, their forest, each root's
	// defect-count parity and boundary contact, and the cluster it peels.
	defects      []int
	uf           unionFind
	odd, touches []bool
	members      []spacetimeNode

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

func (g *graph) newScratch() *decodeScratch {
	return &decodeScratch{
		syn:  make([]bool, len(g.b)),
		used: make([]bool, len(g.b)),
	}
}

// match finds a minimum-weight matching of the events, each to another
// event or to the spatial boundary, and returns whether its correction
// flips the logical qubit: exact up to exactCap events, greedy beyond.
func (g *graph) match(sc *decodeScratch, ev []spacetimeNode, exactCap int) bool {
	if len(ev) <= exactCap {
		return g.matchExact(sc, ev)
	}
	return g.matchGreedy(sc, ev)
}

// matchExact picks, for up to 16 events, exactly the matching the
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
// It returns the XOR of its moves' path parities.
func (g *graph) matchExact(sc *decodeScratch, ev []spacetimeNode) bool {
	n, nz := len(ev), len(g.b)
	if len(sc.memo) < 1<<n {
		sc.memo = make([]int32, 1<<n)
	}
	for i := range ev {
		sc.bnd[i] = g.b[ev[i].z]
		sc.useful[i] = 0
	}
	for i := range ev {
		for j := i + 1; j < n; j++ {
			w := g.stDist(ev[i], ev[j])
			sc.pair[i][j] = w
			if w < sc.bnd[i]+sc.bnd[j] {
				sc.useful[i] |= 1 << j
				sc.useful[j] |= 1 << i
			}
		}
	}
	flip := false
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
				flip = flip != g.bPar[ev[a].z]
				s &^= 1 << a
			} else {
				flip = flip != g.wPar[ev[a].z*nz+ev[b].z]
				s &^= 1<<a | 1<<b
			}
		}
	}
	for _, s := range sc.visited {
		sc.memo[s] = 0
	}
	sc.visited = sc.visited[:0]
	return flip
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

// matchGreedy repeatedly takes the cheapest remaining move, a pair or one
// event to the boundary, and returns the XOR of the moves' path parities.
// Ties keep the first move found, scanning the events in order and each
// event's pairs with later events before its boundary.
func (g *graph) matchGreedy(sc *decodeScratch, ev []spacetimeNode) bool {
	if len(sc.used) < len(ev) {
		sc.used = make([]bool, len(ev))
	}
	used := sc.used[:len(ev)]
	for i := range used {
		used[i] = false
	}
	nz := len(g.b)
	flip := false
	for {
		best := int32(1 << 30)
		bi, bj := -1, -1
		for x := range ev {
			if used[x] {
				continue
			}
			for y := x + 1; y < len(ev); y++ {
				if used[y] {
					continue
				}
				if c := g.stDist(ev[x], ev[y]); c < best {
					best, bi, bj = c, x, y
				}
			}
			if c := g.b[ev[x].z]; c < best {
				best, bi, bj = c, x, -2
			}
		}
		if bi == -1 {
			return flip
		}
		used[bi] = true
		if bj == -2 {
			flip = flip != g.bPar[ev[bi].z]
		} else {
			used[bj] = true
			flip = flip != g.wPar[ev[bi].z*nz+ev[bj].z]
		}
	}
}
