package surface

// The whole-set bitmask DP that the decoders ran before the cluster matcher:
// the reference every exact-matching test compares against. Both variants
// are kept as they were (code capacity over flipped Z-ancillas, space-time
// over detection events); only the cost and choice tables are now allocated
// per call instead of living in the per-shard scratch, and each returns its
// matching's logical parity.

// refDecodeExact is the code-capacity whole-set DP: O(2ⁿ·n²) over the
// flipped syndromes, boundary move first, then partners in ascending index,
// replacing the best only on a strict improvement.
func (g *graph) refDecodeExact(flipped []int) bool {
	n, nz := len(flipped), len(g.b)
	const inf = 1 << 29
	full := 1 << n
	cost := make([]int32, full)
	choice := make([]int32, full) // encoded move: i*64+j (j==63 → boundary)
	cost[0] = 0
	for s := 1; s < full; s++ {
		cost[s] = inf
	}
	for s := 1; s < full; s++ {
		// lowest set bit
		i := 0
		for ; s&(1<<i) == 0; i++ {
		}
		rest := s &^ (1 << i)
		// boundary
		if c := g.b[flipped[i]] + cost[rest]; c < cost[s] {
			cost[s] = c
			choice[s] = int32(i*64 + 63)
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			r2 := rest &^ (1 << j)
			if c := g.w[flipped[i]*nz+flipped[j]] + cost[r2]; c < cost[s] {
				cost[s] = c
				choice[s] = int32(i*64 + j)
			}
		}
	}
	// Reconstruct.
	flip := false
	for s := full - 1; s > 0; {
		ch := choice[s]
		i, j := int(ch/64), int(ch%64)
		if j == 63 {
			flip = flip != g.bPar[flipped[i]]
			s &^= 1 << i
		} else {
			flip = flip != g.wPar[flipped[i]*nz+flipped[j]]
			s &^= (1 << i) | (1 << j)
		}
	}
	return flip
}

// refStExact is the space-time whole-set DP over detection events.
func (g *graph) refStExact(ev []spacetimeNode) bool {
	n, nz := len(ev), len(g.b)
	const inf = 1 << 29
	full := 1 << n
	cost := make([]int32, full)
	choice := make([]int32, full)
	cost[0] = 0
	for s := 1; s < full; s++ {
		cost[s] = inf
	}
	for s := 1; s < full; s++ {
		i := 0
		for ; s&(1<<i) == 0; i++ {
		}
		rest := s &^ (1 << i)
		if c := g.b[ev[i].z] + cost[rest]; c < cost[s] {
			cost[s] = c
			choice[s] = int32(i*64 + 63)
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			r2 := rest &^ (1 << j)
			if c := g.stDist(ev[i], ev[j]) + cost[r2]; c < cost[s] {
				cost[s] = c
				choice[s] = int32(i*64 + j)
			}
		}
	}
	flip := false
	for s := full - 1; s > 0; {
		ch := choice[s]
		i, j := int(ch/64), int(ch%64)
		if j == 63 {
			flip = flip != g.bPar[ev[i].z]
			s &^= 1 << i
		} else {
			flip = flip != g.wPar[ev[i].z*nz+ev[j].z]
			s &^= (1 << i) | (1 << j)
		}
	}
	return flip
}
