package surface

import (
	"math/rand"
	"slices"
	"testing"
)

// checkCapacity decodes one code-capacity syndrome with the cluster matcher
// on the shared scratch and with the whole-set reference DP, and fails when
// the two corrections differ.
func checkCapacity(t *testing.T, m *matcher, sc *decodeScratch, flipped []int) {
	t.Helper()
	syn := make([]bool, len(m.zAncillas))
	for _, z := range flipped {
		syn[z] = true
	}
	got := make([]bool, m.p.DataQubits())
	want := make([]bool, m.p.DataQubits())
	m.decodeWith(sc, got, syn)
	m.refDecodeExact(want, flipped)
	if !slices.Equal(got, want) {
		t.Fatalf("d=%d syndromes %v: correction differs from the whole-set DP", m.p.D, flipped)
	}
}

// checkSpacetime is checkCapacity for space-time detection events.
func checkSpacetime(t *testing.T, m *matcher, sc *decodeScratch, ev []spacetimeNode) {
	t.Helper()
	got := make([]bool, m.p.DataQubits())
	want := make([]bool, m.p.DataQubits())
	m.decodeSpacetimeWith(sc, got, ev)
	m.refStExact(want, ev)
	if !slices.Equal(got, want) {
		t.Fatalf("d=%d events %v: correction differs from the whole-set DP", m.p.D, ev)
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
		m := newMatcher(NewPatch(d))
		sc := m.newScratch()
		nz := len(m.zAncillas)
		if nz <= maxExactCapacity {
			for set := 1; set < 1<<nz; set++ {
				var flipped []int
				for z := 0; z < nz; z++ {
					if set&(1<<z) != 0 {
						flipped = append(flipped, z)
					}
				}
				checkCapacity(t, m, sc, flipped)
			}
			continue
		}
		for trial := 0; trial < 1000; trial++ {
			n := 1 + trial%maxExactCapacity
			flipped := rng.Perm(nz)[:n]
			slices.Sort(flipped)
			checkCapacity(t, m, sc, flipped)
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
		m := newMatcher(NewPatch(d))
		sc := m.newScratch()
		nz := len(m.zAncillas)
		for trial := 0; trial < 1000; trial++ {
			n := 1 + trial%maxExactSpacetime
			tw := []int{1, 2, d + 1}[rng.Intn(3)]
			for nz*tw < n {
				tw++
			}
			checkSpacetime(t, m, sc, randomEvents(rng, nz, tw, n, trial%2 == 1))
		}
	}
}

// TestMatchTies pins the two tie rules on hand-built event sets, each checked
// against the whole-set DP and against the correction the other tie-break
// would give, so that a matcher breaking either tie differently fails:
//   - two partners of the lowest event at equal cost: the lower-indexed
//     partner wins;
//   - a pair whose cost is exactly b(i)+b(j): both events go to the boundary.
func TestMatchTies(t *testing.T) {
	m := newMatcher(NewPatch(7))
	sc := m.newScratch()
	nd, nz := m.p.DataQubits(), len(m.zAncillas)
	flips := func(moves func(err []bool)) []bool {
		err := make([]bool, nd)
		moves(err)
		return err
	}
	equalPartners, boundaryTies := 0, 0
	for a := 0; a < nz; a++ {
		for j := a + 1; j < nz; j++ {
			w, bb := m.dist(a, j), m.boundaryDist[a]+m.boundaryDist[j]
			if w == bb {
				ev := []spacetimeNode{{z: a}, {z: j}}
				got := make([]bool, nd)
				m.decodeSpacetimeWith(sc, got, ev)
				pair := flips(func(err []bool) { m.pathFlip(err, a, j) })
				if slices.Equal(got, pair) {
					continue // both corrections flip the same qubits
				}
				boundaryTies++
				checkSpacetime(t, m, sc, ev)
			}
			for k := j + 1; k < nz; k++ {
				if m.dist(a, k) != w || w >= bb || m.boundaryDist[j] != m.boundaryDist[k] ||
					w+m.boundaryDist[j] >= m.boundaryDist[a]+m.dist(j, k) {
					continue
				}
				// a pairs with j or k at equal total cost, the third event
				// going to the boundary; the DP keeps j.
				ev := []spacetimeNode{{z: a}, {z: j}, {z: k}}
				got := make([]bool, nd)
				m.decodeSpacetimeWith(sc, got, ev)
				other := flips(func(err []bool) { m.pathFlip(err, a, k); m.boundaryFlip(err, j) })
				if slices.Equal(got, other) {
					continue
				}
				equalPartners++
				checkSpacetime(t, m, sc, ev)
			}
		}
	}
	if equalPartners == 0 || boundaryTies == 0 {
		t.Fatalf("tie cases found: %d equal-partner sets, %d boundary ties; want both > 0",
			equalPartners, boundaryTies)
	}
}

// TestDecodeWarmAllocs pins a decode against warm scratch at zero
// allocations on both paths, each at its exact cap.
func TestDecodeWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newMatcher(NewPatch(7))
	sc := m.newScratch()
	nz := len(m.zAncillas)
	errBuf := make([]bool, m.p.DataQubits())
	syn := make([]bool, nz)
	for _, z := range rng.Perm(nz)[:maxExactCapacity] {
		syn[z] = true
	}
	ev := randomEvents(rng, nz, 2, maxExactSpacetime, false)
	for name, decode := range map[string]func(){
		"code-capacity": func() { m.decodeWith(sc, errBuf, syn) },
		"space-time":    func() { m.decodeSpacetimeWith(sc, errBuf, ev) },
	} {
		decode()
		if a := testing.AllocsPerRun(20, decode); a != 0 {
			t.Errorf("%s: warm decode allocates %v times, want 0", name, a)
		}
	}
}
