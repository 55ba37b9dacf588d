package scalability

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"qisim/internal/microarch"
	"qisim/internal/simerr"
	"qisim/internal/wiring"
)

// analyzeAll evaluates every design point under the default options.
func analyzeAll(t *testing.T) []Analysis {
	t.Helper()
	as, _, err := AnalyzeAllCtx(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func analyzeByName(t *testing.T, name string) Analysis {
	t.Helper()
	for _, a := range analyzeAll(t) {
		if a.Design.Name == name {
			return a
		}
	}
	t.Fatalf("unknown design %q", name)
	return Analysis{}
}

func TestFig12Headlines(t *testing.T) {
	cases := []struct {
		name    string
		lo, hi  float64
		binding Constraint
	}{
		{"300K-coax", 330, 470, Power100mK},       // paper: 400
		{"300K-microstrip", 560, 820, Power100mK}, // paper: 650
		{"300K-photonic", 20, 110, Power20mK},     // paper: 70
	}
	for _, c := range cases {
		a := analyzeByName(t, c.name)
		if a.MaxQubits < c.lo || a.MaxQubits > c.hi {
			t.Errorf("%s: max qubits %.0f outside [%v, %v]", c.name, a.MaxQubits, c.lo, c.hi)
		}
		if a.Binding != c.binding {
			t.Errorf("%s: binding %v, want %v", c.name, a.Binding, c.binding)
		}
	}
}

func TestFig13Headlines(t *testing.T) {
	base := analyzeByName(t, "4K-CMOS-baseline")
	if base.MaxQubits >= 700 || base.Binding != Power4K {
		t.Errorf("CMOS baseline %.0f (%v), want <700 (4K power)", base.MaxQubits, base.Binding)
	}
	opt := analyzeByName(t, "4K-CMOS-opt12")
	if opt.MaxQubits < 1152 || opt.MaxQubits > 1600 {
		t.Errorf("CMOS opt12 %.0f, want ~1,399 (>= 1,152 target)", opt.MaxQubits)
	}
	rsfq := analyzeByName(t, "RSFQ-baseline")
	if rsfq.MaxQubits >= 200 || rsfq.Binding != Power20mK {
		t.Errorf("RSFQ baseline %.0f (%v), want <160 (20mK power)", rsfq.MaxQubits, rsfq.Binding)
	}
	o345 := analyzeByName(t, "RSFQ-opt345")
	if o345.MaxQubits < 1152 || o345.MaxQubits > 1500 {
		t.Errorf("RSFQ opt345 %.0f, want ~1,248", o345.MaxQubits)
	}
}

func TestFig17Headlines(t *testing.T) {
	adv := analyzeByName(t, "4K-CMOS-advanced-opt67")
	if adv.MaxQubits < 48000 || adv.MaxQubits > 85000 {
		t.Errorf("advanced CMOS %.0f, want ~63,883", adv.MaxQubits)
	}
	if adv.Binding != LogicalErr {
		t.Errorf("advanced CMOS binding %v, want logical error", adv.Binding)
	}
	er := analyzeByName(t, "ERSFQ-opt8")
	if er.MaxQubits < 60000 || er.MaxQubits > 110000 {
		t.Errorf("ERSFQ %.0f, want ~82,413", er.MaxQubits)
	}
	if er.Binding != LogicalErr {
		t.Errorf("ERSFQ binding %v, want logical error", er.Binding)
	}
	// Both exceed the 62,208-qubit long-term goal region within our bands.
	if adv.MaxQubits < 48000 || er.MaxQubits < 62208 {
		t.Error("long-term designs must approach/exceed the 62,208-qubit goal")
	}
}

func TestNaiveSharingInfeasible(t *testing.T) {
	a := analyzeByName(t, "RSFQ-naive-sharing")
	if a.MeetsNearTerm {
		t.Fatal("naive sharing must violate the near-term error target")
	}
	if a.Binding != LogicalErr {
		t.Fatalf("naive sharing binding %v, want logical error", a.Binding)
	}
	if a.MaxQubits > 100 {
		t.Fatalf("naive sharing max qubits %.0f should collapse", a.MaxQubits)
	}
}

func TestOptimizationOrderingMonotone(t *testing.T) {
	// Each optimisation stage must not reduce achievable scale.
	chains := [][]string{
		{"4K-CMOS-baseline", "4K-CMOS-opt12", "4K-CMOS-advanced", "4K-CMOS-advanced-opt6", "4K-CMOS-advanced-opt67"},
		{"RSFQ-baseline", "RSFQ-opt345", "ERSFQ-opt8"},
	}
	for _, chain := range chains {
		prev := 0.0
		for _, name := range chain {
			a := analyzeByName(t, name)
			if a.MaxQubits < prev {
				t.Errorf("%s (%.0f) regresses below predecessor (%.0f)", name, a.MaxQubits, prev)
			}
			prev = a.MaxQubits
		}
	}
}

func TestSweepCurveShape(t *testing.T) {
	d := microarch.CMOS4KBaseline()
	ns := []int{100, 300, 654, 1000, 20000}
	res, err := SweepCtx(context.Background(), d, ns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != len(ns) {
		t.Fatal("sweep length mismatch")
	}
	// Utilisation grows linearly with N.
	u100 := pts[0].Utilization[wiring.Stage4K]
	u300 := pts[1].Utilization[wiring.Stage4K]
	if math.Abs(u300/u100-3) > 1e-9 {
		t.Fatal("utilisation must be linear in qubit count")
	}
	// Feasibility flips around the limit.
	if !pts[0].Feasible || pts[4].Feasible {
		t.Fatal("feasibility boundary wrong")
	}
	// Target decreases with scale.
	if pts[4].Target >= pts[0].Target {
		t.Fatal("error target must tighten with scale")
	}
}

// TestSweepCanceledIsTruncated: a sweep whose context is already cancelled
// returns the points it finished, flagged Truncated, and no error.
func TestSweepCanceledIsTruncated(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ns := []int{100, 1000, 10000}
	res, err := SweepCtx(ctx, microarch.AllDesigns()[0], ns, DefaultOptions())
	if err != nil {
		t.Fatalf("cancelled sweep: %v", err)
	}
	if !res.Status.Truncated || len(res.Points) >= len(ns) {
		t.Fatalf("cancelled sweep kept %d of %d points, status %+v; want a Truncated prefix",
			len(res.Points), len(ns), res.Status)
	}
}

// TestAnalyzeCheckedRejectsEvenDistance: a surface code needs an odd
// distance, so AnalyzeChecked refuses distance 4 with ErrInvalidConfig.
func TestAnalyzeCheckedRejectsEvenDistance(t *testing.T) {
	opt := DefaultOptions()
	opt.Distance = 4
	if _, err := AnalyzeChecked(microarch.CMOS4KBaseline(), opt); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("distance 4: got %v, want ErrInvalidConfig", err)
	}
}

func TestTableRendering(t *testing.T) {
	as := analyzeAll(t)
	s := Table(as)
	for _, name := range []string{"300K-coax", "ERSFQ-opt8", "binding"} {
		if !strings.Contains(s, name) {
			t.Fatalf("table missing %q:\n%s", name, s)
		}
	}
}

func TestERSFQOpt8SupportsMostQubits(t *testing.T) {
	as := analyzeAll(t)
	best := as[0]
	for _, a := range as[1:] {
		if a.MaxQubits > best.MaxQubits {
			best = a
		}
	}
	if best.Design.Name != "ERSFQ-opt8" {
		t.Fatalf("largest design should be ERSFQ-opt8, got %s", best.Design.Name)
	}
}

func TestSection73SeventyKelvinExtension(t *testing.T) {
	// Offloading the analog front-ends to the 30 W 70 K stage (Section 7.3
	// future direction) lifts the near-term CMOS design meaningfully.
	base := Analyze(microarch.CMOS4KOpt12(), DefaultOptions())
	ext := Analyze(microarch.CMOS4KOpt12With70K(), ExtendedOptions())
	if ext.MaxQubits < 1.2*base.MaxQubits {
		t.Fatalf("70K offload gives %.0f vs %.0f — expected a clear lift", ext.MaxQubits, base.MaxQubits)
	}
	if ext.PerQubit[wiring.Stage70K] <= 0 {
		t.Fatal("offloaded design must dissipate at 70K")
	}
	if ext.PerQubit[wiring.Stage4K] >= base.PerQubit[wiring.Stage4K] {
		t.Fatal("offload must reduce 4K per-qubit power")
	}
	// The huge 70K budget must not be the binding stage.
	if ext.Binding == Power70K {
		t.Fatal("30W 70K budget should not bind")
	}
}

func TestHolisticOrderingStory(t *testing.T) {
	// The paper's core finding: 4 K QCIs start no better than 300 K ones,
	// but architectural optimisation unlocks them.
	coax := analyzeByName(t, "300K-coax")
	cmosBase := analyzeByName(t, "4K-CMOS-baseline")
	if cmosBase.MaxQubits > 2*coax.MaxQubits {
		t.Fatal("baseline 4K CMOS should not dramatically beat 300K coax (Section 6.2.2)")
	}
	cmosOpt := analyzeByName(t, "4K-CMOS-opt12")
	if cmosOpt.MaxQubits < 1.5*coax.MaxQubits {
		t.Fatal("optimised 4K CMOS must clearly beat 300K designs")
	}
}

func TestExportJSON(t *testing.T) {
	as := analyzeAll(t)
	var buf strings.Builder
	if err := WriteJSON(&buf, as); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"ERSFQ-opt8", "max_qubits", "binding", "4K"} {
		if !strings.Contains(s, want) {
			t.Fatalf("export missing %q", want)
		}
	}
	// No infinities may leak into the JSON.
	if strings.Contains(s, "Inf") || strings.Contains(s, "inf") {
		t.Fatal("infinity leaked into JSON export")
	}
}
