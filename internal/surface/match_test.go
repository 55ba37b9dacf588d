package surface

import (
	"math/rand"
	"slices"
	"testing"
)

// checkCapacity decodes one code-capacity syndrome with the cluster matcher
// on the shared scratch and with the whole-set reference DP, and fails when
// the two matchings differ in logical parity.
func checkCapacity(t *testing.T, g *graph, sc *decodeScratch, flipped []int) {
	t.Helper()
	syn := make([]bool, len(g.b))
	for _, z := range flipped {
		syn[z] = true
	}
	if got, want := g.decodeWith(sc, syn), g.refDecodeExact(flipped); got != want {
		t.Fatalf("d=%d syndromes %v: logical parity %v, whole-set DP %v", g.d, flipped, got, want)
	}
}

// checkSpacetime is checkCapacity for space-time detection events.
func checkSpacetime(t *testing.T, g *graph, sc *decodeScratch, ev []spacetimeNode) {
	t.Helper()
	if got, want := g.match(sc, ev, maxExactSpacetime), g.refStExact(ev); got != want {
		t.Fatalf("d=%d events %v: logical parity %v, whole-set DP %v", g.d, ev, got, want)
	}
}

// randomEvents draws n distinct detection events with rounds in [0, tw) and
// lists them in the decoder's (round, ancilla) order, or shuffled.
func randomEvents(rng *rand.Rand, nz, tw, n int, shuffle bool) []spacetimeNode {
	ev := make([]spacetimeNode, 0, n)
	for _, k := range rng.Perm(nz * tw)[:n] {
		ev = append(ev, spacetimeNode{z: k % nz, t: k / nz})
	}
	slices.SortFunc(ev, func(a, b spacetimeNode) int {
		if a.t != b.t {
			return a.t - b.t
		}
		return a.z - b.z
	})
	if shuffle {
		rng.Shuffle(n, func(i, j int) { ev[i], ev[j] = ev[j], ev[i] })
	}
	return ev
}

// TestMatchCapacityEqualsReference compares the cluster matcher with the
// whole-set DP on every syndrome at d=3 and d=5 (every tie included) and on
// random syndromes of 1–16 flips at d=7 and d=9, 16 being the exact cap.
// One scratch serves every decode, so a stale memo entry would show.
func TestMatchCapacityEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{3, 5, 7, 9} {
		g := newGraph(NewPatch(d))
		sc := g.newScratch()
		nz := len(g.b)
		if nz <= maxExactCapacity {
			for set := 1; set < 1<<nz; set++ {
				var flipped []int
				for z := 0; z < nz; z++ {
					if set&(1<<z) != 0 {
						flipped = append(flipped, z)
					}
				}
				checkCapacity(t, g, sc, flipped)
			}
			continue
		}
		for trial := 0; trial < 1000; trial++ {
			n := 1 + trial%maxExactCapacity
			flipped := rng.Perm(nz)[:n]
			slices.Sort(flipped)
			checkCapacity(t, g, sc, flipped)
		}
	}
}

// TestMatchSpacetimeEqualsReference compares the cluster matcher with the
// whole-set DP on random sets of 1–14 detection events (14 being the exact
// cap), packed into one round, two rounds or all d+1, in the decoder's
// order and shuffled.
func TestMatchSpacetimeEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{3, 5, 7, 9} {
		g := newGraph(NewPatch(d))
		sc := g.newScratch()
		nz := len(g.b)
		for trial := 0; trial < 1000; trial++ {
			n := 1 + trial%maxExactSpacetime
			tw := []int{1, 2, d + 1}[rng.Intn(3)]
			for nz*tw < n {
				tw++
			}
			checkSpacetime(t, g, sc, randomEvents(rng, nz, tw, n, trial%2 == 1))
		}
	}
}

// TestMatchTies pins the two tie rules on event sets in rounds 0–2 of a
// d=7 patch whose two tie-breaks give corrections of opposite logical
// parity, so that a matcher breaking either tie differently fails. Each set
// is checked against the rule and against the whole-set DP:
//   - a pair whose cost is exactly b(i)+b(j): both events go to the boundary;
//   - two partners of the lowest event at equal cost: the lower-indexed
//     partner wins.
//
// Events of one round alone never qualify: there, both tie-breaks of every
// tie flip the logical qubit the same way.
func TestMatchTies(t *testing.T) {
	g := newGraph(NewPatch(7))
	sc := g.newScratch()
	nz := len(g.b)
	var nodes []spacetimeNode // in the decoder's (round, ancilla) order
	for r := 0; r < 3; r++ {
		for z := 0; z < nz; z++ {
			nodes = append(nodes, spacetimeNode{z: z, t: r})
		}
	}
	b := func(n spacetimeNode) int32 { return g.b[n.z] }
	bPar := func(n spacetimeNode) bool { return g.bPar[n.z] }
	wPar := func(m, n spacetimeNode) bool { return g.wPar[m.z*nz+n.z] }
	equalPartners, boundaryTies := 0, 0
	for ai, a := range nodes {
		for ji := ai + 1; ji < len(nodes); ji++ {
			j := nodes[ji]
			w, bb := g.stDist(a, j), b(a)+b(j)
			if bnd := bPar(a) != bPar(j); w == bb && wPar(a, j) != bnd {
				ev := []spacetimeNode{a, j}
				if g.match(sc, ev, maxExactSpacetime) != bnd {
					t.Fatalf("events %v: the pair won its tie with the boundary", ev)
				}
				boundaryTies++
				checkSpacetime(t, g, sc, ev)
			}
			for ki := ji + 1; ki < len(nodes); ki++ {
				k := nodes[ki]
				if g.stDist(a, k) != w || w >= bb || b(j) != b(k) || w+b(j) >= b(a)+g.stDist(j, k) {
					continue
				}
				// a pairs with j or k at equal total cost, the third event
				// going to the boundary; the DP keeps j.
				keep, other := wPar(a, j) != bPar(k), wPar(a, k) != bPar(j)
				if keep == other {
					continue
				}
				ev := []spacetimeNode{a, j, k}
				if g.match(sc, ev, maxExactSpacetime) != keep {
					t.Fatalf("events %v: the higher-indexed partner won the tie", ev)
				}
				equalPartners++
				checkSpacetime(t, g, sc, ev)
			}
		}
	}
	if equalPartners == 0 || boundaryTies == 0 {
		t.Fatalf("tie cases found: %d equal-partner sets, %d boundary ties; want both > 0",
			equalPartners, boundaryTies)
	}
	t.Logf("%d equal-partner sets, %d boundary ties", equalPartners, boundaryTies)
}

// TestDecodeWarmAllocs pins a decode against warm scratch at zero
// allocations on both matching paths, each at its exact cap, and on the
// union-find decoder with as many defects.
func TestDecodeWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := newGraph(NewPatch(7))
	sc := g.newScratch()
	nz := len(g.b)
	syn := make([]bool, nz)
	for _, z := range rng.Perm(nz)[:maxExactCapacity] {
		syn[z] = true
	}
	ev := randomEvents(rng, nz, 2, maxExactSpacetime, false)
	for name, decode := range map[string]func(){
		"code-capacity": func() { g.decodeWith(sc, syn) },
		"space-time":    func() { g.match(sc, ev, maxExactSpacetime) },
		"union-find":    func() { g.decodeUnionFindWith(sc, syn) },
	} {
		decode()
		if a := testing.AllocsPerRun(20, decode); a != 0 {
			t.Errorf("%s: warm decode allocates %v times, want 0", name, a)
		}
	}
}
