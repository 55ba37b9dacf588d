package surface

import (
	"context"

	"qisim/internal/simrun"
)

// unionFind is a plain disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// decodeUnionFind is the cluster-growth decoder (a simplified
// Delfosse–Nickerson union-find): defects grow balls of increasing radius;
// overlapping balls merge into clusters; a cluster is neutral once it holds
// an even number of defects or touches the lattice boundary. Neutral
// clusters are then peeled: defects pair up inside the cluster, with one
// defect routed to the boundary in odd boundary-touching clusters.
func (m *matcher) decodeUnionFind(err []bool, syndrome []bool) {
	m.decodeUnionFindWith(m.newScratch(), err, syndrome)
}

func (m *matcher) decodeUnionFindWith(sc *decodeScratch, err []bool, syndrome []bool) {
	var defects []int
	for z, s := range syndrome {
		if s {
			defects = append(defects, z)
		}
	}
	if len(defects) == 0 {
		return
	}
	uf := newUnionFind(len(m.zAncillas))
	touchesBoundary := make([]bool, len(m.zAncillas))

	neutral := func() bool {
		count := map[int]int{}
		bnd := map[int]bool{}
		for _, d := range defects {
			r := uf.find(d)
			count[r]++
			if touchesBoundary[r] {
				bnd[r] = true
			}
		}
		for r, c := range count {
			if c%2 == 1 && !bnd[r] {
				return false
			}
		}
		return true
	}

	maxR := 2 * m.p.D
	for r := 1; r <= maxR && !neutral(); r++ {
		for i, a := range defects {
			if m.boundaryDist[a] <= r {
				touchesBoundary[uf.find(a)] = true
			}
			for _, b := range defects[i+1:] {
				if m.dist(a, b) <= 2*r {
					uf.union(a, b)
				}
			}
		}
		// Propagate boundary contact to merged roots.
		for _, a := range defects {
			if touchesBoundary[a] {
				touchesBoundary[uf.find(a)] = true
			}
		}
	}

	// Peel each cluster: pair defects; route a leftover to the boundary.
	clusters := map[int][]spacetimeNode{}
	for _, d := range defects {
		r := uf.find(d)
		clusters[r] = append(clusters[r], spacetimeNode{z: d})
	}
	for _, members := range clusters {
		// Peel each (small) cluster with the exact local matcher — clusters
		// bound the matching problem, which is what makes union-find fast
		// while staying near matching accuracy.
		m.match(sc, err, members, maxExactCapacity)
	}
}

// MonteCarloUnionFindCtx estimates the code-capacity logical error rate
// with the union-find decoder, for comparison with the matching decoder (UF
// is near-linear-time; matching is more accurate). It runs on the sharded
// parallel engine (see MonteCarloLogicalErrorCtx): results
// are bit-identical for every opt.Workers count; cancellation yields a
// partial, Truncated-flagged estimate over the completed shard prefix.
func MonteCarloUnionFindCtx(ctx context.Context, d int, p float64, shots int, seed int64, opt simrun.Options) (DecoderResult, error) {
	if err := checkMCParams(d, p); err != nil {
		return DecoderResult{}, err
	}
	patch := NewPatch(d)
	m := newMatcher(patch) // read-only after construction: shared across shards
	nd := patch.DataQubits()
	failures, status, gerr := simrun.RunSharded(ctx, shots, seed, opt,
		func(t *simrun.ShardTask) (int, int, error) {
			errBuf := make([]bool, nd)
			sc := m.newScratch()
			f := 0
			for i := 0; t.Continue(i); i++ {
				anyErr := false
				for q := 0; q < nd; q++ {
					errBuf[q] = t.RNG.Float64() < p
					anyErr = anyErr || errBuf[q]
				}
				if !anyErr {
					continue
				}
				m.decodeUnionFindWith(sc, errBuf, m.syndromeInto(sc.syn, errBuf))
				if m.logicalFlip(errBuf) {
					f++
				}
			}
			return f, f, nil
		},
		func(dst *int, src int) { *dst += src })
	if gerr != nil {
		return DecoderResult{}, gerr
	}
	return DecoderResult{Shots: status.Completed, Failures: failures, Status: status}, nil
}
