package surface

import (
	"context"
	"math"
	"testing"

	"qisim/internal/simrun"
)

// codeCapacity runs the matching-decoder code-capacity MC to completion.
func codeCapacity(t *testing.T, d int, p float64, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloLogicalErrorCtx(context.Background(), d, p, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// ufCapacity runs the union-find code-capacity MC to completion.
func ufCapacity(t *testing.T, d int, p float64, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloUnionFindCtx(context.Background(), d, p, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pheno runs the phenomenological MC to completion.
func pheno(t *testing.T, d int, p, q float64, rounds, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloPhenomenologicalCtx(context.Background(), d, p, q, rounds, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPatchCounts(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		p := NewPatch(d)
		if p.DataQubits() != d*d {
			t.Fatalf("d=%d: data qubits %d, want %d", d, p.DataQubits(), d*d)
		}
		if len(p.Ancillas) != d*d-1 {
			t.Fatalf("d=%d: ancillas %d, want %d", d, len(p.Ancillas), d*d-1)
		}
		nz := len(p.AncillasOfType(ZAncilla))
		nx := len(p.AncillasOfType(XAncilla))
		if nz != nx || nz+nx != d*d-1 {
			t.Fatalf("d=%d: Z/X ancilla split %d/%d", d, nz, nx)
		}
	}
}

func TestPatchPanicsOnEvenDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even distance")
		}
	}()
	NewPatch(4)
}

func TestPhysicalQubitsPerPatch(t *testing.T) {
	// Section 6.1: d = 23 → 1,152 physical qubits per logical qubit.
	if got := PhysicalQubitsPerPatch(23); got != 1152 {
		t.Fatalf("2(d+1)² at d=23 = %d, want 1152", got)
	}
}

func TestAncillaWeights(t *testing.T) {
	p := NewPatch(5)
	for _, a := range p.Ancillas {
		if len(a.Data) != 2 && len(a.Data) != 4 {
			t.Fatalf("ancilla %+v has weight %d", a, len(a.Data))
		}
		boundary := a.R2 == -1 || a.C2 == -1 || a.R2 == 2*p.D-1 || a.C2 == 2*p.D-1
		if boundary && len(a.Data) != 2 {
			t.Fatalf("boundary ancilla must have weight 2: %+v", a)
		}
		if !boundary && len(a.Data) != 4 {
			t.Fatalf("bulk ancilla must have weight 4: %+v", a)
		}
	}
}

func TestESMCircuitStructure(t *testing.T) {
	p := NewPatch(5)
	ops := p.ESMCircuit()
	counts := map[string]int{}
	czPerAncilla := map[int]int{}
	for _, op := range ops {
		counts[op.Kind]++
		if op.Kind == "cz" {
			czPerAncilla[op.Q]++
			if op.Q2 < 0 || op.Q2 >= p.DataQubits() {
				t.Fatalf("CZ data partner out of range: %+v", op)
			}
		}
	}
	na := len(p.Ancillas)
	if counts["h"] != 2*na {
		t.Fatalf("H count %d, want %d (two layers)", counts["h"], 2*na)
	}
	if counts["measure"] != na {
		t.Fatalf("measure count %d, want %d", counts["measure"], na)
	}
	// Every ancilla gets one CZ per adjacent data qubit.
	totalCZ := 0
	for _, a := range p.Ancillas {
		totalCZ += len(a.Data)
	}
	if counts["cz"] != totalCZ {
		t.Fatalf("CZ count %d, want %d", counts["cz"], totalCZ)
	}
}

func TestESMLayersConflictFree(t *testing.T) {
	// Within one CZ layer no qubit may appear twice (they run in parallel).
	p := NewPatch(7)
	byLayer := map[int]map[int]bool{}
	for _, op := range p.ESMCircuit() {
		if op.Kind != "cz" {
			continue
		}
		m, ok := byLayer[op.Layer]
		if !ok {
			m = map[int]bool{}
			byLayer[op.Layer] = m
		}
		for _, q := range []int{op.Q, op.Q2} {
			if m[q] {
				t.Fatalf("qubit %d used twice in layer %d", q, op.Layer)
			}
			m[q] = true
		}
	}
	if len(byLayer) != 4 {
		t.Fatalf("expected 4 CZ layers, got %d", len(byLayer))
	}
}

func TestDecoderCorrectsAllSingleErrors(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		p := NewPatch(d)
		m := newMatcher(p)
		for q := 0; q < p.DataQubits(); q++ {
			err := make([]bool, p.DataQubits())
			err[q] = true
			m.decode(err, m.syndrome(err))
			for _, s := range m.syndrome(err) {
				if s {
					t.Fatalf("d=%d: residual syndrome after correcting single error at %d", d, q)
				}
			}
			if m.logicalFlip(err) {
				t.Fatalf("d=%d: logical flip from a single error at %d", d, q)
			}
		}
	}
}

func TestDecoderDistanceProperty(t *testing.T) {
	// A distance-5 code corrects every weight-2 error.
	p := NewPatch(5)
	m := newMatcher(p)
	n := p.DataQubits()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			err := make([]bool, n)
			err[a], err[b] = true, true
			m.decode(err, m.syndrome(err))
			if m.logicalFlip(err) {
				t.Fatalf("weight-2 error {%d,%d} caused a logical flip at d=5", a, b)
			}
		}
	}
}

func TestMonteCarloSubThresholdScaling(t *testing.T) {
	// Below threshold, larger distance wins and error grows with p.
	p3 := codeCapacity(t, 3, 0.01, 40000, 1).Rate()
	p5 := codeCapacity(t, 5, 0.01, 40000, 2).Rate()
	if p5 >= p3 {
		t.Fatalf("d=5 (%.4g) should beat d=3 (%.4g) below threshold", p5, p3)
	}
	q3 := codeCapacity(t, 3, 0.03, 40000, 3).Rate()
	if q3 <= p3 {
		t.Fatalf("logical error must grow with p: %.4g at 3%% vs %.4g at 1%%", q3, p3)
	}
}

func TestMonteCarloExponentRoughlyMatchesProjection(t *testing.T) {
	// The code-capacity MC should scale near (p)^((d+1)/2): for d=3 the
	// log-log slope between p=0.01 and p=0.04 should be ~2.
	lo := codeCapacity(t, 3, 0.01, 120000, 4).Rate()
	hi := codeCapacity(t, 3, 0.04, 120000, 5).Rate()
	slope := math.Log(hi/lo) / math.Log(4.0)
	if slope < 1.4 || slope > 2.6 {
		t.Fatalf("d=3 scaling exponent %.2f, want ~2", slope)
	}
}

func TestProjectionFormula(t *testing.T) {
	pr := DefaultProjection()
	// At p = p_th the projection returns A.
	if math.Abs(pr.Logical(pr.PTh)-pr.A) > 1e-15 {
		t.Fatal("Logical(p_th) must equal A")
	}
	// Exponent (d+1)/2 = 12 at d=23: halving p divides p_L by 2^12.
	r := pr.Logical(2e-4) / pr.Logical(1e-4)
	if math.Abs(r-math.Pow(2, 12)) > 1 {
		t.Fatalf("projection exponent wrong: ratio %.1f, want 4096", r)
	}
	// Inverse.
	p := pr.PhysicalFor(1e-13)
	if math.Abs(pr.Logical(p)-1e-13)/1e-13 > 1e-9 {
		t.Fatal("PhysicalFor must invert Logical")
	}
}

func TestRoundTimeSFQ(t *testing.T) {
	// SFQ unshared: 2·25 + 4·50 + 665 = 915 ns.
	rt := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 665e-9, DriveSerialization: 1}
	if math.Abs(rt.RoundTime()-915e-9) > 1e-12 {
		t.Fatalf("SFQ round time %v, want 915 ns", rt.RoundTime())
	}
}

func TestLogicalErrorAnchorsSFQ(t *testing.T) {
	// The calibrated model must reproduce the paper's Fig. 13(b)/15/20
	// logical-error anchors within a factor ~2.
	pr := DefaultProjection()
	ep := SFQErrorParams()
	cases := []struct {
		name    string
		readout float64
		anchor  float64
	}{
		{"unshared-baseline", 665e-9, 4.13e-16},
		{"naive-sharing", 5320e-9, 3.50e-7},
		{"shared-pipelined", 1255e-9, 1.34e-13},
	}
	for _, c := range cases {
		rt := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: c.readout, DriveSerialization: 1}
		pl := pr.Logical(ep.Effective(rt.RoundTime(), 0))
		if pl < c.anchor/3 || pl > c.anchor*3 {
			t.Errorf("%s: p_L = %.3g, paper anchor %.3g", c.name, pl, c.anchor)
		}
	}
}

func TestOpt8LogicalErrorReduction(t *testing.T) {
	// Opt-#8: fast driving + unsharing cuts p_L by ~28,355x vs pipelined.
	pr := DefaultProjection()
	ep := SFQErrorParams()
	pipe := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 1255e-9, DriveSerialization: 1}
	fast := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 317.7e-9, DriveSerialization: 1}
	ratio := pr.Logical(ep.Effective(pipe.RoundTime(), 0)) / pr.Logical(ep.Effective(fast.RoundTime(), 0))
	if ratio < 8000 || ratio > 90000 {
		t.Fatalf("Opt-#8 logical-error reduction %.0fx, paper 28,355x", ratio)
	}
}

func TestOpt7CMOSRatios(t *testing.T) {
	// FDM 32→20 cuts p_L ~3.85x; multi-round readout a further ~3.62x.
	pr := DefaultProjection()
	ep := CMOSErrorParams()
	mk := func(fdm int, ro float64) float64 {
		rt := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: ro, DriveSerialization: CMOSSerialization(fdm)}
		return pr.Logical(ep.Effective(rt.RoundTime(), 0))
	}
	r1 := mk(32, 517e-9) / mk(20, 517e-9)
	if r1 < 2.8 || r1 > 5.2 {
		t.Fatalf("FDM 32→20 logical gain %.2f, paper 3.85", r1)
	}
	r2 := mk(20, 517e-9) / mk(20, 306e-9)
	if r2 < 2.6 || r2 > 5.0 {
		t.Fatalf("multi-round logical gain %.2f, paper 3.62", r2)
	}
}

func TestTargetModelAnchors(t *testing.T) {
	tm := DefaultTargets()
	if math.Abs(tm.Target(2)-1.11e-11)/1.11e-11 > 1e-9 {
		t.Fatal("Jellium N=2 anchor broken")
	}
	if got := tm.Target(54); math.Abs(got-1.69e-17)/1.69e-17 > 0.02 {
		t.Fatalf("Jellium N=54 target %.3g, want 1.69e-17", got)
	}
	// Monotone decreasing.
	if tm.Target(10) <= tm.Target(20) {
		t.Fatal("target must decrease with algorithm size")
	}
}

func TestMaxPhysicalQubitsEndpoints(t *testing.T) {
	tm := DefaultTargets()
	pr := DefaultProjection()
	// ERSFQ + Opt-#8 end state: readout 317.7 ns → ~82k qubits (paper 82,413).
	ep := SFQErrorParams()
	rt := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 317.7e-9, DriveSerialization: 1}
	pl := pr.Logical(ep.Effective(rt.RoundTime(), 0))
	n := tm.MaxPhysicalQubits(pl, 23)
	if n < 60000 || n > 110000 {
		t.Fatalf("ERSFQ error-limited scale %.0f, paper 82,413", n)
	}
	// Advanced CMOS + Opt-#6/7: FDM 20 + 306 ns readout → ~64k (63,883).
	ec := CMOSErrorParams()
	rtc := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 306e-9, DriveSerialization: CMOSSerialization(20)}
	plc := pr.Logical(ec.Effective(rtc.RoundTime(), 0))
	nc := tm.MaxPhysicalQubits(plc, 23)
	if nc < 48000 || nc > 85000 {
		t.Fatalf("advanced-CMOS error-limited scale %.0f, paper 63,883", nc)
	}
}

func TestNearTermErrorHeadroom(t *testing.T) {
	// Fig. 13: both near-term designs meet the 1.11e-11 target (power, not
	// error, limits them) — except naive sharing, which violates it.
	pr := DefaultProjection()
	ep := SFQErrorParams()
	ok := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 1255e-9, DriveSerialization: 1}
	if pl := pr.Logical(ep.Effective(ok.RoundTime(), 0)); pl > 1.11e-11 {
		t.Fatalf("pipelined design misses the near-term target: %.3g", pl)
	}
	naive := RoundTiming{OneQTime: 25e-9, TwoQTime: 50e-9, ReadoutTime: 5320e-9, DriveSerialization: 1}
	if pl := pr.Logical(ep.Effective(naive.RoundTime(), 0)); pl < 1.11e-11 {
		t.Fatalf("naive sharing should violate the near-term target, got %.3g", pl)
	}
}

func TestThresholdEstimateBand(t *testing.T) {
	if testing.Short() {
		t.Skip("MC threshold probe")
	}
	res, err := ThresholdEstimateCtx(context.Background(), 3, 3000, 7, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	th := res.Estimate
	// Code-capacity matching thresholds sit near 10%.
	if th < 0.04 || th > 0.2 {
		t.Fatalf("decoder threshold %.3f outside the plausible band", th)
	}
}
