package surface

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// TestPhenomenologicalCoreRejects requires every parameter outside the
// model, or past the bounds that keep one request's memory and time in
// check, to fail as invalid config before any table is built.
func TestPhenomenologicalCoreRejects(t *testing.T) {
	for _, c := range []struct {
		d      int
		p, q   float64
		rounds int
	}{
		{4, 0.01, 0.01, 3}, {1, 0.01, 0.01, 3}, {53, 0.01, 0.01, 3},
		{5, 0.01, 0.01, 0}, {5, 0.01, 0.01, 1001},
		{5, math.NaN(), 0.01, 3}, {5, -0.1, 0.01, 3}, {5, 1.5, 0.01, 3},
		{5, 0.01, math.NaN(), 3}, {5, 0.01, -0.1, 3}, {5, 0.01, 1.5, 3},
	} {
		t.Run(fmt.Sprintf("d=%d_p=%v_q=%v_rounds=%d", c.d, c.p, c.q, c.rounds), func(t *testing.T) {
			run, merge, err := PhenomenologicalCore(c.d, c.p, c.q, c.rounds)
			if !errors.Is(err, simerr.ErrInvalidConfig) || run != nil || merge != nil {
				t.Fatalf("got err %v, want ErrInvalidConfig and no core", err)
			}
		})
	}
}

func TestPhenomenologicalReducesToCodeCapacity(t *testing.T) {
	// With q = 0 and one round, the phenomenological model must match the
	// code-capacity MC statistically.
	a := pheno(t, 3, 0.01, 0, 1, 30000, 1).Rate()
	b := codeCapacity(t, 3, 0.01, 30000, 2).Rate()
	if a > 2.5*b+1e-3 || b > 2.5*a+1e-3 {
		t.Fatalf("q=0 phenomenological (%.4g) inconsistent with code capacity (%.4g)", a, b)
	}
}

func TestPhenomenologicalDistanceHelps(t *testing.T) {
	p := 0.008
	p3 := pheno(t, 3, p, p, 3, 20000, 3).Rate()
	p5 := pheno(t, 5, p, p, 5, 20000, 4).Rate()
	if p5 >= p3 {
		t.Fatalf("d=5 (%.4g) should beat d=3 (%.4g) below threshold", p5, p3)
	}
}

func TestMeasurementErrorsHurt(t *testing.T) {
	p := 0.01
	clean := pheno(t, 3, p, 0, 3, 20000, 5).Rate()
	noisy := pheno(t, 3, p, p, 3, 20000, 6).Rate()
	if noisy <= clean {
		t.Fatalf("measurement noise should raise the logical error: %.4g vs %.4g", noisy, clean)
	}
}

func TestMoreRoundsAccumulateError(t *testing.T) {
	p := 0.006
	short := pheno(t, 3, p, p, 2, 20000, 7).Rate()
	long := pheno(t, 3, p, p, 8, 20000, 8).Rate()
	if long <= short {
		t.Fatalf("more noisy rounds should accumulate logical error: %.4g vs %.4g", long, short)
	}
}

func TestZeroNoiseZeroFailures(t *testing.T) {
	r := pheno(t, 5, 0, 0, 5, 2000, 9)
	if r.Failures != 0 {
		t.Fatalf("no noise but %d failures", r.Failures)
	}
}

func TestPhenomenologicalThresholdBand(t *testing.T) {
	if testing.Short() {
		t.Skip("MC threshold probe")
	}
	res, err := PhenomenologicalThresholdCtx(context.Background(), 3, 3, 1200, 10, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	th := res.Estimate
	// Matching decoders sit near 3%; our behavioural decoder with a coarse
	// metric lands somewhat higher — demand the right order of magnitude.
	if th < 0.01 || th > 0.12 {
		t.Fatalf("phenomenological threshold %.3f outside plausible band", th)
	}
}

var failSink int

// BenchmarkPhenomenologicalShard times one 512-shot shard of the mc-decode
// configuration (d=7, 7 rounds, p = q = 0.005) through simrun.NewShardTask:
// op i runs shard i of seed 1. It reports the time per shot.
func BenchmarkPhenomenologicalShard(b *testing.B) {
	const d, rounds, p = 7, 7, 0.005
	run, _, err := PhenomenologicalCore(d, p, p, rounds)
	if err != nil {
		b.Fatal(err)
	}
	f := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := simrun.Shard{Index: i, Start: i * simrun.DefaultShardSize, N: simrun.DefaultShardSize,
			Seed: simrun.ShardSeed(1, i)}
		n, _, err := run(simrun.NewShardTask(context.Background(), sh, 0))
		if err != nil {
			b.Fatal(err)
		}
		f += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*simrun.DefaultShardSize), "ns/shot")
	failSink = f
}
