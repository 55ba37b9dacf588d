package readout

import (
	"context"
	"math"
	"testing"

	"qisim/internal/simrun"
)

// multiRound runs the multi-round MC to completion.
func multiRound(t *testing.T, c Chain, tm Timing, cfg MultiRoundConfig) MultiRoundResult {
	t.Helper()
	r, err := MultiRoundErrorCtx(context.Background(), c, tm, cfg, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBinCountingTable2Anchor(t *testing.T) {
	// Table 2: CMOS readout error 1.00e-3 at the full 517 ns schedule.
	e := BinCountingError(DefaultChain(), DefaultTiming(), 8)
	if e < 5e-4 || e > 2e-3 {
		t.Fatalf("bin-counting error %.3g outside Table 2 anchor band around 1e-3", e)
	}
}

func TestMethodRankingFig19(t *testing.T) {
	// Fig. 19(b): bin-counting has the lowest error among representative
	// methods; single-point is measurably worse on the same chain.
	c, tm := DefaultChain(), DefaultTiming()
	bin := BinCountingError(c, tm, 8)
	single := SinglePointError(c, tm, 8)
	if single <= bin {
		t.Fatalf("single-point (%.3g) should be worse than bin-counting (%.3g)", single, bin)
	}
	if single > 5*bin {
		t.Fatalf("single-point penalty implausibly large: %.3g vs %.3g", single, bin)
	}
}

func TestErrorFallsWithRounds(t *testing.T) {
	c, tm := DefaultChain(), DefaultTiming()
	prev := math.Inf(1)
	for rounds := 1; rounds <= 8; rounds++ {
		e := BinCountingError(c, tm, rounds)
		if e > prev {
			t.Fatalf("bin error should fall with integration: round %d: %.3g > %.3g", rounds, e, prev)
		}
		prev = e
	}
}

func TestShortReadoutAccuracy(t *testing.T) {
	// Opt-#7 observation 1: "98.6% accuracy within 267 ns" — i.e. a 3-round
	// readout is already ~98-99% accurate.
	c, tm := DefaultChain(), DefaultTiming()
	acc := 1 - BinCountingError(c, tm, 3)
	if acc < 0.95 || acc > 0.999 {
		t.Fatalf("3-round accuracy %.4f, want ~0.986", acc)
	}
	if got := tm.TotalTime(3); math.Abs(got-267e-9) > 1e-12 {
		t.Fatalf("3-round readout time %v ns, want 267 ns", got*1e9)
	}
}

func TestTimingTable2(t *testing.T) {
	tm := DefaultTiming()
	if got := tm.TotalTime(8); math.Abs(got-517e-9) > 1e-12 {
		t.Fatalf("full readout %v ns, want Table 2's 517 ns", got*1e9)
	}
}

func TestMultiRoundFig19(t *testing.T) {
	// Opt-#7 headline: ~40.9% faster readout at the same error.
	c, tm := DefaultChain(), DefaultTiming()
	bin := BinCountingError(c, tm, 8)
	r := multiRound(t, c, tm, DefaultMultiRoundConfig())
	if r.Error > 1.3*bin {
		t.Fatalf("multi-round error %.3g should match bin-counting %.3g", r.Error, bin)
	}
	if r.Speedup < 0.30 || r.Speedup > 0.55 {
		t.Fatalf("multi-round speedup %.3f outside the ~0.409 band", r.Speedup)
	}
	if r.MeanRounds >= 8 || r.MeanRounds < 1 {
		t.Fatalf("mean rounds %.2f implausible", r.MeanRounds)
	}
}

func TestMultiRoundRangeTradeoff(t *testing.T) {
	// A wider indecision range uses more rounds (slower, more cautious).
	c, tm := DefaultChain(), DefaultTiming()
	narrow := DefaultMultiRoundConfig()
	narrow.Range, narrow.Shots = 15, 50000
	wide := DefaultMultiRoundConfig()
	wide.Range, wide.Shots = 60, 50000
	rn := multiRound(t, c, tm, narrow)
	rw := multiRound(t, c, tm, wide)
	if rn.MeanRounds >= rw.MeanRounds {
		t.Fatalf("narrow range should finish sooner: %.2f vs %.2f rounds", rn.MeanRounds, rw.MeanRounds)
	}
	if rn.Error < rw.Error {
		t.Fatalf("narrow range should not be more accurate: %.3g vs %.3g", rn.Error, rw.Error)
	}
}

func TestMultiRoundDeterministic(t *testing.T) {
	c, tm := DefaultChain(), DefaultTiming()
	cfg := DefaultMultiRoundConfig()
	cfg.Shots = 20000
	a := multiRound(t, c, tm, cfg)
	b := multiRound(t, c, tm, cfg)
	if a.Error != b.Error || a.MeanRounds != b.MeanRounds {
		t.Fatal("seeded multi-round MC must be deterministic")
	}
}

func TestIQBitsSaturation(t *testing.T) {
	// Opt-#1 justification: the 7-bit IQ precision is at the error-saturating
	// point — dropping the bin memory (same precision, streaming compare)
	// cannot change the error; going very coarse does.
	c, tm := DefaultChain(), DefaultTiming()
	e7 := BinCountingError(c, tm, 8)
	c.IQBits = 0 // ideal precision
	eInf := BinCountingError(c, tm, 8)
	if math.Abs(e7-eInf)/eInf > 0.02 {
		t.Fatalf("7-bit IQ should be saturated: %.4g vs ideal %.4g", e7, eInf)
	}
	c.IQBits = 2
	e2 := BinCountingError(c, tm, 8)
	if e2 <= eInf*1.05 {
		t.Fatalf("2-bit IQ should visibly hurt: %.4g vs %.4g", e2, eInf)
	}
}

func TestDecayPenaltyScalesWithWindow(t *testing.T) {
	c, tm := DefaultChain(), DefaultTiming()
	c.SNRPerSample = 10 // make Gaussian part negligible
	e8 := BinCountingError(c, tm, 8)
	e4 := BinCountingError(c, tm, 4)
	if e4 >= e8 {
		t.Fatalf("shorter window should see less decay: %.3g vs %.3g", e4, e8)
	}
	// With SNR huge, error ≈ decayProb·frac/4.
	want := c.DecayProb / 4
	if math.Abs(e8-want)/want > 0.05 {
		t.Fatalf("decay-dominated error %.3g, want %.3g", e8, want)
	}
}

func TestTrajectoryMCConsistentWithAnalytic(t *testing.T) {
	// The physics-level MC must agree with the fast tier within MC error.
	cfg := DefaultTrajectoryConfig()
	cfg.Shots = 4000
	c, tm := DefaultChain(), DefaultTiming()
	res, err := TrajectoryMCCtx(context.Background(), cfg, c, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bin := BinCountingError(c, tm, 8)
	// 4000 shots at p~1e-3: expect a handful of errors; accept 0..5x band.
	if res.BinError > 5*bin+1e-3 {
		t.Fatalf("trajectory bin error %.3g inconsistent with analytic %.3g", res.BinError, bin)
	}
	if res.SingleError < res.BinError {
		// ranking must match (allow ties at zero errors)
		if res.SingleError != 0 {
			t.Fatalf("trajectory ranking inverted: single %.3g < bin %.3g", res.SingleError, res.BinError)
		}
	}
	if res.Separation <= 0 {
		t.Fatal("pointer separation must be positive")
	}
}

func TestChainPerSampleProb(t *testing.T) {
	c := DefaultChain()
	q := c.perSampleCorrectProb()
	if q <= 0.5 || q >= 0.6 {
		t.Fatalf("per-sample correctness %.4f should be slightly above chance", q)
	}
	// Outliers reduce q.
	c2 := c
	c2.OutlierProb = 0
	if c2.perSampleCorrectProb() <= q {
		t.Fatal("removing outliers should improve per-sample correctness")
	}
}
