package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		s, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(s) < 40 {
			t.Fatalf("%s: suspiciously short report:\n%s", id, s)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

func TestHeadlinesWithinBand(t *testing.T) {
	for _, h := range Headlines() {
		r := h.Ours / h.Paper
		if r < 1 {
			r = 1 / r
		}
		// Every headline within ~2.1x (the photonic design is the worst at
		// ~2x — same order, same binding constraint); most are within 15%.
		if r > 2.2 {
			t.Errorf("%s: ours %.4g vs paper %.4g (%.2fx)", h.Name, h.Ours, h.Paper, r)
		}
	}
	if w := WorstHeadlineRatio(); w > 2.2 {
		t.Fatalf("worst headline deviation %.2fx", w)
	}
}

func TestMostHeadlinesTight(t *testing.T) {
	tight := 0
	for _, h := range Headlines() {
		r := h.Ours / h.Paper
		if r < 1 {
			r = 1 / r
		}
		if r <= 1.15 {
			tight++
		}
	}
	if tight < 10 {
		t.Fatalf("only %d/%d headlines within 15%% of the paper", tight, len(Headlines()))
	}
}

func TestFig14Saturation(t *testing.T) {
	r := Fig14()
	if r.LogicalSaturationBits > r.GateSaturationBits {
		t.Fatalf("logical error must saturate earlier (at %d bits) than gate error (%d)",
			r.LogicalSaturationBits, r.GateSaturationBits)
	}
	if r.LogicalSaturationBits < 4 || r.LogicalSaturationBits > 7 {
		t.Fatalf("logical saturation at %d bits, paper says 6", r.LogicalSaturationBits)
	}
	if r.GateSaturationBits < 7 || r.GateSaturationBits > 11 {
		t.Fatalf("gate saturation at %d bits, paper says ~9", r.GateSaturationBits)
	}
}

func TestFig15Ordering(t *testing.T) {
	r := Fig15()
	if !(r.UnsharedNS < r.PipelinedNS && r.PipelinedNS < r.NaiveNS) {
		t.Fatalf("latency ordering broken: %v / %v / %v", r.UnsharedNS, r.PipelinedNS, r.NaiveNS)
	}
	if !(r.UnsharedPL < r.PipelinedPL && r.PipelinedPL < r.NaivePL) {
		t.Fatalf("error ordering broken: %v / %v / %v", r.UnsharedPL, r.PipelinedPL, r.NaivePL)
	}
}

func TestFig16Bands(t *testing.T) {
	r := Fig16()
	if r.BitgenReduction < 0.93 {
		t.Fatalf("bitgen reduction %.3f, paper 0.982", r.BitgenReduction)
	}
	if r.BSReductionSaving < 0.38 || r.BSReductionSaving > 0.50 {
		t.Fatalf("#BS saving %.3f, paper 0.438", r.BSReductionSaving)
	}
}

func TestFig18Bands(t *testing.T) {
	r := Fig18()
	if r.WireShare < 0.70 || r.WireShare > 0.90 {
		t.Fatalf("wire share %.3f, paper 0.812", r.WireShare)
	}
	if r.BandwidthSaved < 0.88 {
		t.Fatalf("bandwidth saving %.3f, paper 0.93", r.BandwidthSaved)
	}
}

func TestFig19Bands(t *testing.T) {
	r, err := Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if r.MultiRound.Speedup < 0.30 || r.MultiRound.Speedup > 0.55 {
		t.Fatalf("multi-round speedup %.3f, paper 0.409", r.MultiRound.Speedup)
	}
	if r.MultiRound.Error > 1.3*r.BinError {
		t.Fatal("multi-round must match bin-counting error")
	}
}

func TestFig20Bands(t *testing.T) {
	r := Fig20()
	if r.ErrorReduction < 5e3 || r.ErrorReduction > 1e5 {
		t.Fatalf("Opt-#8 error reduction %.0f, paper 28,355", r.ErrorReduction)
	}
	if r.MaxQubits < 62208 {
		t.Fatalf("ERSFQ scale %.0f must exceed the 62,208 long-term goal", r.MaxQubits)
	}
}

func TestRunAllContainsEverySection(t *testing.T) {
	s := RunAll()
	for _, marker := range []string{"Fig. 8", "Fig. 10", "Table 1", "Fig. 11", "Table 2",
		"Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17", "Fig. 18",
		"Fig. 19", "Fig. 20", "Table 3"} {
		if !strings.Contains(s, marker) {
			t.Fatalf("RunAll output missing %q", marker)
		}
	}
}

func TestDSEExperiment(t *testing.T) {
	r1, err := DSE()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome.GridSize != 48 || r1.Outcome.Evaluated+r1.Outcome.Pruned != 48 {
		t.Fatalf("outcome %+v", r1.Outcome)
	}
	if len(r1.Outcome.Frontier.Points) == 0 {
		t.Fatal("empty frontier")
	}
	// The Fig. 17 conclusion: ERSFQ-opt8 leads the frontier.
	if got, _ := r1.Outcome.Frontier.Points[0].Params["design"].(string); got != "ERSFQ-opt8" {
		t.Fatalf("frontier leader %q, want ERSFQ-opt8", got)
	}
	// Deterministic: a second run serialises byte-identically.
	r2, err := DSE()
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Canonical) != string(r2.Canonical) {
		t.Fatalf("canonical outcome differs across runs:\n%s\n%s", r1.Canonical, r2.Canonical)
	}
}
