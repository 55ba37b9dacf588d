package surface

// The whole-set bitmask DP that the decoders ran before the cluster matcher:
// the reference every exact-matching test compares against. Both variants
// are kept as they were (code capacity over flipped Z-ancillas, space-time
// over detection events); only the cost and choice tables are now allocated
// per call instead of living in the per-shard scratch.

// refDecodeExact is the code-capacity whole-set DP: O(2ⁿ·n²) over the
// flipped syndromes, boundary move first, then partners in ascending index,
// replacing the best only on a strict improvement.
func (m *matcher) refDecodeExact(err []bool, flipped []int) {
	n := len(flipped)
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
		if c := int32(m.boundaryDist[flipped[i]]) + cost[rest]; c < cost[s] {
			cost[s] = c
			choice[s] = int32(i*64 + 63)
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			r2 := rest &^ (1 << j)
			if c := int32(m.dist(flipped[i], flipped[j])) + cost[r2]; c < cost[s] {
				cost[s] = c
				choice[s] = int32(i*64 + j)
			}
		}
	}
	// Reconstruct.
	for s := full - 1; s > 0; {
		ch := choice[s]
		i, j := int(ch/64), int(ch%64)
		if j == 63 {
			m.boundaryFlip(err, flipped[i])
			s &^= 1 << i
		} else {
			m.pathFlip(err, flipped[i], flipped[j])
			s &^= (1 << i) | (1 << j)
		}
	}
}

// refStExact is the space-time whole-set DP over detection events.
func (m *matcher) refStExact(err []bool, ev []spacetimeNode) {
	n := len(ev)
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
		if c := int32(m.stBoundary(ev[i])) + cost[rest]; c < cost[s] {
			cost[s] = c
			choice[s] = int32(i*64 + 63)
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			r2 := rest &^ (1 << j)
			if c := int32(m.stDist(ev[i], ev[j])) + cost[r2]; c < cost[s] {
				cost[s] = c
				choice[s] = int32(i*64 + j)
			}
		}
	}
	for s := full - 1; s > 0; {
		ch := choice[s]
		i, j := int(ch/64), int(ch%64)
		if j == 63 {
			m.boundaryFlip(err, ev[i].z)
			s &^= 1 << i
		} else {
			m.pathFlip(err, ev[i].z, ev[j].z)
			s &^= (1 << i) | (1 << j)
		}
	}
}
