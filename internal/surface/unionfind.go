package surface

import (
	"context"

	"qisim/internal/simrun"
)

// unionFind is a disjoint-set forest whose roots are each set's lowest
// element. The zero value is ready for reset.
type unionFind struct {
	parent []int
}

// reset makes the forest n singletons, reusing its buffer.
func (u *unionFind) reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
	}
	u.parent = u.parent[:n]
	for i := range u.parent {
		u.parent[i] = i
	}
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
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// decodeUnionFindWith is the cluster-growth decoder (a simplified
// Delfosse–Nickerson union-find): defects grow balls of increasing radius;
// overlapping balls merge into clusters; a cluster is neutral once it holds
// an even number of defects or touches the lattice boundary. Neutral
// clusters are then peeled: defects pair up inside the cluster, with one
// defect routed to the boundary in odd boundary-touching clusters. It
// returns whether the correction flips the logical qubit. The forest is
// over the defects' positions in the syndrome order, and a decode against a
// warm scratch allocates nothing.
func (g *graph) decodeUnionFindWith(sc *decodeScratch, syndrome []bool) bool {
	defects := sc.defects[:0]
	for z, s := range syndrome {
		if s {
			defects = append(defects, z)
		}
	}
	sc.defects = defects
	n, nz := len(defects), len(g.b)
	if n == 0 {
		return false
	}
	if len(sc.odd) < n {
		sc.odd, sc.touches = make([]bool, n), make([]bool, n)
	}
	sc.uf.reset(n)

	// At radius r two defects join when their path is at most 2r long.
	maxR := 2 * g.d
	for r := 1; r <= maxR; r++ {
		for i, a := range defects {
			for j := i + 1; j < n; j++ {
				if int(g.w[a*nz+defects[j]]) <= 2*r {
					sc.uf.union(i, j)
				}
			}
		}
		if g.neutral(sc, r) {
			break
		}
	}

	// Peel each cluster, in order of its first defect, with the exact local
	// matcher — clusters bound the matching problem, which is what makes
	// union-find fast while staying near matching accuracy. The clusters'
	// parities are XORed, so their order cannot change the result.
	flip := false
	for i := range defects {
		if sc.uf.find(i) != i {
			continue
		}
		members := sc.members[:0]
		for j := i; j < n; j++ {
			if sc.uf.find(j) == i {
				members = append(members, spacetimeNode{z: defects[j]})
			}
		}
		sc.members = members
		flip = flip != g.match(sc, members, maxExactCapacity)
	}
	return flip
}

// neutral reports whether every cluster of the forest is neutral at growth
// radius r: it holds an even number of defects, or one of its defects lies
// within r of the boundary.
func (g *graph) neutral(sc *decodeScratch, r int) bool {
	odd, touches := sc.odd[:len(sc.defects)], sc.touches[:len(sc.defects)]
	clear(odd)
	clear(touches)
	for i, z := range sc.defects {
		root := sc.uf.find(i)
		odd[root] = !odd[root]
		touches[root] = touches[root] || int(g.b[z]) <= r
	}
	for root, o := range odd {
		if o && !touches[root] {
			return false
		}
	}
	return true
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
