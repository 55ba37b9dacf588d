package surface

import (
	"context"
	"math"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// DecoderResult summarises a Monte-Carlo logical-error estimate. Shots is
// the number actually completed: when Status.Truncated is set the result is
// a best-so-far partial estimate over those shots, not garbage.
type DecoderResult struct {
	Shots    int `json:"shots"`
	Failures int `json:"failures"`
	// Status flags truncation/convergence for the context-aware entry
	// points; zero-valued for the legacy fixed-budget ones.
	Status simrun.Status `json:"status"`
}

// Rate returns the logical error estimate.
func (r DecoderResult) Rate() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Shots)
}

// matcher holds the Z-stabilizer syndrome graph of a patch for X-error
// decoding (the X sector is symmetric; the paper generates both X and Z
// errors from QIsim and feeds the standard error model, and so do we via
// two independent sectors).
type matcher struct {
	p *Patch
	// zIdx maps ancilla index → compact Z index; coords for distances.
	zAncillas []int
	dataToZ   [][]int // data qubit → list of Z-ancilla compact ids
	shared    map[[2]int]int
	// boundaryQubit[z] is a data qubit adjacent only to Z-ancilla z (a path
	// to the top/bottom boundary), or -1.
	boundaryQubit []int
	boundaryDist  []int

	// Precomputed decode tables, built once per patch so the per-shot hot
	// path never touches a map or recomputes a distance:
	//   adj/adjQ    — neighbours of z in ascending id order + shared qubit,
	//   distT       — Chebyshev distance between Z-ancilla pairs (nz×nz),
	//   nextZ/nextQ — the greedy next hop (and its flip qubit) on a
	//                 shortest path cur→target, replayed from pathFlip's
	//                 argmin over the sorted neighbour order (nz×nz),
	//   bStepZ/bStepQ — boundaryFlip's walk step from each ancilla: the
	//                 flip qubit plus the next ancilla (-1 = walk ends).
	adj, adjQ      [][]int
	distT          []int32
	nextZ, nextQ   []int32
	bStepZ, bStepQ []int32
}

func newMatcher(p *Patch) *matcher {
	m := &matcher{p: p, shared: make(map[[2]int]int)}
	compact := make(map[int]int)
	for i, a := range p.Ancillas {
		if a.Type == ZAncilla {
			compact[i] = len(m.zAncillas)
			m.zAncillas = append(m.zAncillas, i)
		}
	}
	m.dataToZ = make([][]int, p.DataQubits())
	for i, a := range p.Ancillas {
		if a.Type != ZAncilla {
			continue
		}
		z := compact[i]
		for _, q := range a.Data {
			m.dataToZ[q] = append(m.dataToZ[q], z)
		}
	}
	// Shared data qubits between Z-ancilla pairs; boundary qubits for
	// singly-attached data qubits.
	m.boundaryQubit = make([]int, len(m.zAncillas))
	m.boundaryDist = make([]int, len(m.zAncillas))
	for z := range m.boundaryQubit {
		m.boundaryQubit[z] = -1
	}
	for q, zs := range m.dataToZ {
		switch len(zs) {
		case 2:
			key := [2]int{min(zs[0], zs[1]), max(zs[0], zs[1])}
			m.shared[key] = q
		case 1:
			m.boundaryQubit[zs[0]] = q
		}
	}
	// Boundary distance: rows to nearest X boundary (top/bottom), in
	// ancilla-grid steps.
	d := p.D
	for z, ai := range m.zAncillas {
		r2 := p.Ancillas[ai].R2
		top := (r2 + 1) / 2
		bot := (2*d - 1 - r2) / 2
		m.boundaryDist[z] = min(top, bot)
	}
	m.buildTables()
	return m
}

// buildTables precomputes the decode lookup tables from the shared-qubit
// map, so the per-shot path never iterates a map or recomputes a distance.
// Neighbour ties resolve in ascending ancilla-id order — a fixed choice
// among equally short corrections, which differ from each other only by
// stabilizer loops and therefore leave every decoded outcome unchanged.
func (m *matcher) buildTables() {
	nz := len(m.zAncillas)
	m.adj = make([][]int, nz)
	m.adjQ = make([][]int, nz)
	for key, q := range m.shared {
		m.adj[key[0]] = append(m.adj[key[0]], key[1])
		m.adjQ[key[0]] = append(m.adjQ[key[0]], q)
		m.adj[key[1]] = append(m.adj[key[1]], key[0])
		m.adjQ[key[1]] = append(m.adjQ[key[1]], q)
	}
	for z := 0; z < nz; z++ {
		adj, adjQ := m.adj[z], m.adjQ[z]
		for i := 1; i < len(adj); i++ {
			for j := i; j > 0 && adj[j] < adj[j-1]; j-- {
				adj[j], adj[j-1] = adj[j-1], adj[j]
				adjQ[j], adjQ[j-1] = adjQ[j-1], adjQ[j]
			}
		}
	}
	m.distT = make([]int32, nz*nz)
	for a := 0; a < nz; a++ {
		for b := 0; b < nz; b++ {
			m.distT[a*nz+b] = int32(m.distFromCoords(a, b))
		}
	}
	// Next hop of a shortest path cur→tgt: the first strictly closer
	// neighbour in ascending order, exactly the greedy step pathFlip takes.
	m.nextZ = make([]int32, nz*nz)
	m.nextQ = make([]int32, nz*nz)
	for cur := 0; cur < nz; cur++ {
		for tgt := 0; tgt < nz; tgt++ {
			m.nextZ[cur*nz+tgt], m.nextQ[cur*nz+tgt] = -1, -1
			if cur == tgt {
				continue
			}
			best, bq, bd := -1, -1, 1<<30
			for idx, nb := range m.adj[cur] {
				if dd := int(m.distT[nb*nz+tgt]); dd < bd {
					bd, best, bq = dd, nb, m.adjQ[cur][idx]
				}
			}
			if best != -1 {
				m.nextZ[cur*nz+tgt], m.nextQ[cur*nz+tgt] = int32(best), int32(bq)
			}
		}
	}
	// Boundary walk step per ancilla: terminal flip (bStepZ = -1) or one
	// hop toward the nearest boundary, mirroring boundaryFlip's branches.
	m.bStepZ = make([]int32, nz)
	m.bStepQ = make([]int32, nz)
	for cur := 0; cur < nz; cur++ {
		if q := m.boundaryQubit[cur]; q != -1 && m.boundaryDist[cur] <= 1 {
			m.bStepQ[cur], m.bStepZ[cur] = int32(q), -1
			continue
		}
		best, bq, bd := -1, -1, m.boundaryDist[cur]
		for idx, nb := range m.adj[cur] {
			if dd := m.boundaryDist[nb]; dd < bd {
				bd, best, bq = dd, nb, m.adjQ[cur][idx]
			}
		}
		if best == -1 {
			// No strictly closer neighbour: flip own boundary qubit if any.
			m.bStepQ[cur], m.bStepZ[cur] = int32(m.boundaryQubit[cur]), -1
			continue
		}
		m.bStepQ[cur], m.bStepZ[cur] = int32(bq), int32(best)
	}
}

// dist is the decoding metric between two Z-ancillas: Chebyshev distance on
// the ancilla sub-lattice (diagonal steps are single shared-qubit hops),
// served from the precomputed table.
func (m *matcher) dist(z1, z2 int) int {
	return int(m.distT[z1*len(m.zAncillas)+z2])
}

// distFromCoords computes dist from ancilla coordinates (table build only).
func (m *matcher) distFromCoords(z1, z2 int) int {
	a1, a2 := m.p.Ancillas[m.zAncillas[z1]], m.p.Ancillas[m.zAncillas[z2]]
	dr := abs(a1.R2-a2.R2) / 2
	dc := abs(a1.C2-a2.C2) / 2
	return max(dr, dc)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pathFlip flips the data qubits on a shortest ancilla-graph path z1→z2,
// walking the precomputed next-hop table.
func (m *matcher) pathFlip(err []bool, z1, z2 int) {
	nz := len(m.zAncillas)
	for cur := z1; cur != z2; {
		q := m.nextQ[cur*nz+z2]
		if q < 0 {
			return // disconnected (cannot happen on a valid patch)
		}
		err[q] = !err[q]
		cur = int(m.nextZ[cur*nz+z2])
	}
}

// boundaryFlip flips data qubits from ancilla z to the nearest X boundary,
// walking the precomputed boundary-step table.
func (m *matcher) boundaryFlip(err []bool, z int) {
	for cur := z; ; {
		q, nxt := m.bStepQ[cur], m.bStepZ[cur]
		if q >= 0 {
			err[q] = !err[q]
		}
		if nxt < 0 {
			return
		}
		cur = int(nxt)
	}
}

// decode matches the flipped syndromes (against each other or the boundary)
// minimising the TOTAL correction weight — exact min-weight matching for up
// to 16 flipped syndromes (ample below threshold), greedy beyond — and
// applies the corrections in place.
func (m *matcher) decode(err []bool, syndrome []bool) {
	m.decodeWith(m.newScratch(), err, syndrome)
}

// decodeWith is decode against reusable per-shard scratch. Each flipped
// syndrome is a detection event at t = 0, so the pair cost is the spatial
// distance.
func (m *matcher) decodeWith(sc *decodeScratch, err []bool, syndrome []bool) {
	ev := sc.events[:0]
	for z, s := range syndrome {
		if s {
			ev = append(ev, spacetimeNode{z: z})
		}
	}
	sc.events = ev
	m.match(sc, err, ev, maxExactCapacity)
}

// flip applies the data-qubit flips in hits to err, and their syndrome
// change to syn: each toggles its qubit and the Z ancillas that check it.
// The syndrome is linear over GF(2) in the error, so if syn is the syndrome
// of err before, it is the syndrome of err after, whatever the flips'
// order.
func (m *matcher) flip(err, syn []bool, hits []int32) {
	for _, q := range hits {
		err[q] = !err[q]
		for _, z := range m.dataToZ[q] {
			syn[z] = !syn[z]
		}
	}
}

// logicalFlip reports whether the residual X pattern flips the logical
// qubit: odd parity over the Z-logical support (data row 0).
func (m *matcher) logicalFlip(err []bool) bool {
	parity := false
	for c := 0; c < m.p.D; c++ {
		if err[c] { // row 0: qubits 0..d-1
			parity = !parity
		}
	}
	return parity
}

// checkMCParams validates the shared MC arguments.
func checkMCParams(d int, probs ...float64) error {
	if d < 3 || d%2 == 0 {
		return simerr.Invalidf("surface: distance must be odd and >= 3, got %d", d)
	}
	for _, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return simerr.Invalidf("surface: error probability %v outside [0,1]", p)
		}
	}
	return nil
}

// MonteCarloLogicalErrorCtx estimates the code-capacity logical X error
// rate of a distance-d patch under i.i.d. X errors of probability p, using
// the greedy matching decoder. It validates the Projection's
// (p/p_th)^((d+1)/2) scaling; the paper's timing-dependent effects enter
// through ErrorParams.
//
// The run executes on the sharded parallel engine: the shot budget is partitioned
// into fixed-size shards with independent deterministic RNG streams
// (simrun.ShardSeed), run on opt.Workers goroutines (default GOMAXPROCS),
// and merged in shard order — the estimate is bit-identical for every
// worker count. Cancellation or deadline expiry keeps the completed shard
// prefix as a partial, Truncated-flagged estimate; opt can also enable the
// cross-shard standard-error convergence guard.
func MonteCarloLogicalErrorCtx(ctx context.Context, d int, p float64, shots int, seed int64, opt simrun.Options) (DecoderResult, error) {
	if err := checkMCParams(d, p); err != nil {
		return DecoderResult{}, err
	}
	m := newMatcher(NewPatch(d)) // read-only after construction: shared across shards
	failures, status, gerr := simrun.RunSharded(ctx, shots, seed, opt, m.capacityShard(p, m.decodeWith),
		func(dst *int, src int) { *dst += src })
	if gerr != nil {
		return DecoderResult{}, gerr
	}
	return DecoderResult{Shots: status.Completed, Failures: failures, Status: status}, nil
}

// capacityShard returns the code-capacity shard sampler: each shot flips
// every data qubit with probability p, corrects the error with decode, and
// counts a failure when the residual flips the logical qubit. All per-shot
// state (error buffer, syndrome, decoder tables) is hoisted out of the shot
// loop, which allocates nothing.
func (m *matcher) capacityShard(p float64, decode func(sc *decodeScratch, err, syndrome []bool)) simrun.ShardFunc[int] {
	nd := m.p.DataQubits()
	coin := simrun.NewCoin(p)
	return func(t *simrun.ShardTask) (int, int, error) {
		errBuf := make([]bool, nd)
		hits := make([]int32, 0, nd)
		sc := m.newScratch()
		f := 0
		for i := 0; t.Continue(i); i++ {
			hits = t.Hits(hits[:0], nd, coin)
			if len(hits) == 0 {
				continue
			}
			clear(errBuf)
			clear(sc.syn)
			m.flip(errBuf, sc.syn, hits)
			decode(sc, errBuf, sc.syn)
			// After correction the syndrome must be clear; any remaining
			// flip is logical.
			if m.logicalFlip(errBuf) {
				f++
			}
		}
		return f, f, nil
	}
}

// ThresholdResult is the outcome of a threshold bisection: when Truncated is
// set, Estimate is the best-so-far bracket midpoint after Iterations
// completed bisection steps.
type ThresholdResult struct {
	Estimate   float64       `json:"estimate"`
	Iterations int           `json:"iterations"`
	Status     simrun.Status `json:"status"`
}

// ThresholdEstimateCtx locates the crossing point of the d and d+2 logical
// error curves by bisection over p — a coarse decoder-threshold probe. Each
// bisection step runs two guarded MC estimates; on cancellation the current
// bracket midpoint is returned as a Truncated best-so-far estimate.
func ThresholdEstimateCtx(ctx context.Context, d int, shots int, seed int64, opt simrun.Options) (ThresholdResult, error) {
	if err := checkMCParams(d); err != nil {
		return ThresholdResult{}, err
	}
	lo, hi := 0.005, 0.2
	const iters = 12
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi)
		small, err := MonteCarloLogicalErrorCtx(ctx, d, mid, shots, seed, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if small.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: small.Status}, nil
		}
		large, err := MonteCarloLogicalErrorCtx(ctx, d+2, mid, shots, seed+1, opt)
		if err != nil {
			return ThresholdResult{}, err
		}
		if large.Status.Truncated {
			return ThresholdResult{Estimate: math.Sqrt(lo * hi), Iterations: i, Status: large.Status}, nil
		}
		if large.Rate() < small.Rate() {
			lo = mid // below threshold: bigger code wins
		} else {
			hi = mid
		}
	}
	return ThresholdResult{
		Estimate:   math.Sqrt(lo * hi),
		Iterations: iters,
		Status:     simrun.Status{Requested: iters, Completed: iters, StopReason: simrun.StopCompleted},
	}, nil
}
