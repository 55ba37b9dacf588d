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

// decodeUnionFindWith is the cluster-growth decoder (a simplified
// Delfosse–Nickerson union-find): defects grow balls of increasing radius;
// overlapping balls merge into clusters; a cluster is neutral once it holds
// an even number of defects or touches the lattice boundary. Neutral
// clusters are then peeled: defects pair up inside the cluster, with one
// defect routed to the boundary in odd boundary-touching clusters. It
// returns whether the correction flips the logical qubit.
func (g *graph) decodeUnionFindWith(sc *decodeScratch, syndrome []bool) bool {
	var defects []int
	for z, s := range syndrome {
		if s {
			defects = append(defects, z)
		}
	}
	if len(defects) == 0 {
		return false
	}
	nz := len(g.b)
	uf := newUnionFind(nz)
	touchesBoundary := make([]bool, nz)

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

	maxR := 2 * g.d
	for r := 1; r <= maxR && !neutral(); r++ {
		for i, a := range defects {
			if int(g.b[a]) <= r {
				touchesBoundary[uf.find(a)] = true
			}
			for _, b := range defects[i+1:] {
				if int(g.w[a*nz+b]) <= 2*r {
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
	flip := false
	for _, members := range clusters {
		// Peel each (small) cluster with the exact local matcher — clusters
		// bound the matching problem, which is what makes union-find fast
		// while staying near matching accuracy.
		flip = flip != g.match(sc, members, maxExactCapacity)
	}
	return flip
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
	g := newGraph(NewPatch(d)) // read-only after construction: shared across shards
	failures, status, gerr := simrun.RunSharded(ctx, shots, seed, opt, g.capacityShard(p, g.decodeUnionFindWith),
		func(dst *int, src int) { *dst += src })
	if gerr != nil {
		return DecoderResult{}, gerr
	}
	return DecoderResult{Shots: status.Completed, Failures: failures, Status: status}, nil
}
