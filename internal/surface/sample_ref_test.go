package surface

import (
	"context"
	"fmt"
	"testing"

	"qisim/internal/simrun"
)

// The shard samplers as they were before they drew through
// simrun.ShardTask.Hits: one RNG.Float64() < p test per data qubit and per
// measurement, and the whole syndrome extracted again each round. They are
// the reference the block-draw samplers must equal, shot for shot and word
// for word.

// syndrome computes the Z-stabilizer syndrome of an X-error pattern.
func (g *graph) syndrome(err []bool) []bool {
	return g.syndromeInto(make([]bool, len(g.b)), err)
}

// syndromeInto computes the syndrome into s (one entry per Z check) and
// returns it.
func (g *graph) syndromeInto(s []bool, err []bool) []bool {
	clear(s)
	for q, e := range err {
		if !e {
			continue
		}
		for _, z := range g.edges[q] {
			if z != boundary {
				s[z] = !s[z]
			}
		}
	}
	return s
}

// logicalParity reports whether an X-error pattern flips the logical qubit
// of a distance-d patch: odd parity over the Z logical's support, data row 0
// (qubits 0..d−1).
func logicalParity(d int, err []bool) bool {
	par := false
	for _, e := range err[:d] {
		par = par != e
	}
	return par
}

// refPhenomenologicalShard is the Float64-loop phenomenological sampler. It
// keeps the data-qubit error array and counts a failure when the array's
// logical parity differs from the matching's.
func refPhenomenologicalShard(g *graph, p, q float64, rounds int) simrun.ShardFunc[int] {
	nd, nz := len(g.edges), len(g.b)
	return func(t *simrun.ShardTask) (int, int, error) {
		errBuf := make([]bool, nd)
		prevMeas := make([]bool, nz)
		curTrue := make([]bool, nz)
		var events []spacetimeNode
		sc := g.newScratch()
		f := 0
		for s := 0; t.Continue(s); s++ {
			clear(errBuf)
			clear(prevMeas)
			events = events[:0]
			for r := 0; r < rounds; r++ {
				for qb := 0; qb < nd; qb++ {
					if t.RNG.Float64() < p {
						errBuf[qb] = !errBuf[qb]
					}
				}
				g.syndromeInto(curTrue, errBuf)
				for z := 0; z < nz; z++ {
					meas := curTrue[z]
					if t.RNG.Float64() < q {
						meas = !meas
					}
					if meas != prevMeas[z] {
						events = append(events, spacetimeNode{z: z, t: r})
					}
					prevMeas[z] = meas
				}
			}
			g.syndromeInto(curTrue, errBuf)
			for z := 0; z < nz; z++ {
				if curTrue[z] != prevMeas[z] {
					events = append(events, spacetimeNode{z: z, t: rounds})
				}
			}
			if g.match(sc, events, maxExactSpacetime) != logicalParity(g.d, errBuf) {
				f++
			}
		}
		return f, f, nil
	}
}

// refCapacityShard is the Float64-loop code-capacity sampler, with the
// error array and failure rule of refPhenomenologicalShard.
func refCapacityShard(g *graph, p float64, decoder func(sc *decodeScratch, syndrome []bool) bool) simrun.ShardFunc[int] {
	nd := len(g.edges)
	return func(t *simrun.ShardTask) (int, int, error) {
		errBuf := make([]bool, nd)
		sc := g.newScratch()
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
			if decoder(sc, g.syndromeInto(sc.syn, errBuf)) != logicalParity(g.d, errBuf) {
				f++
			}
		}
		return f, f, nil
	}
}

// checkSamplerEqualsReference runs got and want on the same shard of every
// seed and requires equal failure counts and streams still in step: both
// samplers then made the same decisions from the same words, or a
// difference changed no failure and no word count, which the 60 seeds at
// rates with many failures make implausible.
func checkSamplerEqualsReference(t *testing.T, name string, shots int, got, want simrun.ShardFunc[int]) {
	t.Helper()
	total := 0
	for seed := int64(0); seed < 60; seed++ {
		sh := simrun.Shard{Index: int(seed), N: shots, Seed: simrun.ShardSeed(seed, int(seed))}
		gt := simrun.NewShardTask(context.Background(), sh, 0)
		wt := simrun.NewShardTask(context.Background(), sh, 0)
		g, _, err := got(gt)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := want(wt)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("%s, seed %d: %d failures, reference %d", name, seed, g, w)
		}
		if a, b := gt.RNG.Int63(), wt.RNG.Int63(); a != b {
			t.Fatalf("%s, seed %d: stream out of step after the shard: %d, reference %d", name, seed, a, b)
		}
		total += g
	}
	if total == 0 {
		t.Fatalf("%s: no failures in any shard, so the comparison shows nothing", name)
	}
	t.Logf("%s: %d failures", name, total)
}

// TestSamplersEqualFloat64Reference pins the three block-draw samplers
// against the Float64-loop samplers they replaced, at rates from deep below
// threshold to far above it, including p = 0 and q = 1, and at distances
// whose syndromes fill one and two 64-bit words.
func TestSamplersEqualFloat64Reference(t *testing.T) {
	for _, c := range []struct {
		d, rounds, shots int
		p, q             float64
	}{
		{3, 3, 40, 0.05, 0.05}, {5, 5, 40, 0.02, 0.01}, {5, 2, 40, 0.2, 0}, {3, 4, 400, 0, 0.3},
		{3, 2, 40, 0.1, 1}, {5, 3, 40, 0.6, 0.4},
		{7, 7, simrun.DefaultShardSize, 0.005, 0.005}, // mc-decode's configuration and shard
		// The syndrome bitmask takes one word up to d = 7 (24 checks) and
		// more beyond: d = 11 has 60 checks, d = 13 has 84, in two words.
		{11, 4, 300, 0.01, 0.02}, {13, 3, 300, 0.02, 0.008},
	} {
		g := newGraph(NewPatch(c.d))
		run, _, err := PhenomenologicalCore(c.d, c.p, c.q, c.rounds)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("phenomenological d=%d rounds=%d p=%v q=%v", c.d, c.rounds, c.p, c.q)
		checkSamplerEqualsReference(t, name, c.shots, run,
			refPhenomenologicalShard(g, c.p, c.q, c.rounds))
	}
	for _, c := range []struct {
		d int
		p float64
	}{{3, 0.05}, {5, 0.03}, {7, 0.04}, {3, 0.5}, {5, 1}} {
		g := newGraph(NewPatch(c.d))
		name := fmt.Sprintf("d=%d p=%v", c.d, c.p)
		checkSamplerEqualsReference(t, "code capacity "+name, 200, g.capacityShard(c.p, g.decodeWith),
			refCapacityShard(g, c.p, g.decodeWith))
		checkSamplerEqualsReference(t, "union-find "+name, 200, g.capacityShard(c.p, g.decodeUnionFindWith),
			refCapacityShard(g, c.p, g.decodeUnionFindWith))
	}
}
