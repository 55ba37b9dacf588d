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
func (m *matcher) syndrome(err []bool) []bool {
	return m.syndromeInto(make([]bool, len(m.zAncillas)), err)
}

// syndromeInto computes the syndrome into s (len(zAncillas)) and returns it.
func (m *matcher) syndromeInto(s []bool, err []bool) []bool {
	clear(s)
	for q, e := range err {
		if !e {
			continue
		}
		for _, z := range m.dataToZ[q] {
			s[z] = !s[z]
		}
	}
	return s
}

// refPhenomenologicalShard is the Float64-loop phenomenological sampler.
func refPhenomenologicalShard(m *matcher, p, q float64, rounds int) simrun.ShardFunc[int] {
	nd, nz := m.p.DataQubits(), len(m.zAncillas)
	return func(t *simrun.ShardTask) (int, int, error) {
		errBuf := make([]bool, nd)
		prevMeas := make([]bool, nz)
		curTrue := make([]bool, nz)
		var events []spacetimeNode
		sc := m.newScratch()
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
				m.syndromeInto(curTrue, errBuf)
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
			m.syndromeInto(curTrue, errBuf)
			for z := 0; z < nz; z++ {
				if curTrue[z] != prevMeas[z] {
					events = append(events, spacetimeNode{z: z, t: rounds})
				}
			}
			m.decodeSpacetimeWith(sc, errBuf, events)
			if m.logicalFlip(errBuf) {
				f++
			}
		}
		return f, f, nil
	}
}

// refCapacityShard is the Float64-loop code-capacity sampler.
func refCapacityShard(m *matcher, p float64, decode func(sc *decodeScratch, err, syndrome []bool)) simrun.ShardFunc[int] {
	nd := m.p.DataQubits()
	return func(t *simrun.ShardTask) (int, int, error) {
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
			decode(sc, errBuf, m.syndromeInto(sc.syn, errBuf))
			if m.logicalFlip(errBuf) {
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
// threshold to far above it, including p = 0 and q = 1.
func TestSamplersEqualFloat64Reference(t *testing.T) {
	for _, c := range []struct {
		d, rounds, shots int
		p, q             float64
	}{
		{3, 3, 40, 0.05, 0.05}, {5, 5, 40, 0.02, 0.01}, {5, 2, 40, 0.2, 0}, {3, 4, 400, 0, 0.3},
		{3, 2, 40, 0.1, 1}, {5, 3, 40, 0.6, 0.4},
		{7, 7, simrun.DefaultShardSize, 0.005, 0.005}, // mc-decode's configuration and shard
	} {
		m := newMatcher(NewPatch(c.d))
		run, _, err := PhenomenologicalCore(c.d, c.p, c.q, c.rounds)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("phenomenological d=%d rounds=%d p=%v q=%v", c.d, c.rounds, c.p, c.q)
		checkSamplerEqualsReference(t, name, c.shots, run,
			refPhenomenologicalShard(m, c.p, c.q, c.rounds))
	}
	for _, c := range []struct {
		d int
		p float64
	}{{3, 0.05}, {5, 0.03}, {7, 0.04}, {3, 0.5}, {5, 1}} {
		m := newMatcher(NewPatch(c.d))
		name := fmt.Sprintf("d=%d p=%v", c.d, c.p)
		checkSamplerEqualsReference(t, "code capacity "+name, 200, m.capacityShard(c.p, m.decodeWith),
			refCapacityShard(m, c.p, m.decodeWith))
		checkSamplerEqualsReference(t, "union-find "+name, 200, m.capacityShard(c.p, m.decodeUnionFindWith),
			refCapacityShard(m, c.p, m.decodeUnionFindWith))
	}
}
