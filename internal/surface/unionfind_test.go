package surface

import "testing"

func TestUnionFindCorrectsSingleErrors(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		g := newGraph(NewPatch(d))
		sc := g.newScratch()
		for q := 0; q < d*d; q++ {
			err := make([]bool, d*d)
			err[q] = true
			if g.decodeUnionFindWith(sc, g.syndrome(err)) != logicalParity(d, err) {
				t.Fatalf("d=%d: union-find failed on single error at %d", d, q)
			}
		}
	}
}

func TestUnionFindSubThreshold(t *testing.T) {
	p3 := ufCapacity(t, 3, 0.01, 30000, 1).Rate()
	p5 := ufCapacity(t, 5, 0.01, 30000, 2).Rate()
	if p5 >= p3 {
		t.Fatalf("union-find: d=5 (%.4g) should beat d=3 (%.4g) below threshold", p5, p3)
	}
}

func TestUnionFindVsMatchingAccuracy(t *testing.T) {
	// Union-find trades accuracy for near-linear decode time: it must stay
	// within an order of magnitude of matching, and never meaningfully beat
	// it (that would signal a matching bug).
	for _, d := range []int{3, 5} {
		mw := codeCapacity(t, d, 0.02, 40000, 3).Rate()
		uf := ufCapacity(t, d, 0.02, 40000, 3).Rate()
		if uf > 12*mw+1e-4 {
			t.Fatalf("d=%d: union-find %.4g too far above matching %.4g", d, uf, mw)
		}
		if mw > 1.5*uf+1e-4 {
			t.Fatalf("d=%d: matching %.4g worse than union-find %.4g", d, mw, uf)
		}
	}
}

func TestUnionFindDataStructure(t *testing.T) {
	var u unionFind
	u.reset(8)
	u.union(0, 1)
	u.union(2, 3)
	u.union(1, 3)
	if u.find(0) != u.find(2) {
		t.Fatal("transitive union broken")
	}
	if u.find(4) == u.find(0) {
		t.Fatal("separate sets merged spuriously")
	}
}
