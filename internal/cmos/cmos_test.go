package cmos

import (
	"math"
	"testing"
)

func TestBaselineBreakdownShares(t *testing.T) {
	// Section 6.3.1: RX digital 54.7% and drive digital 13.3% of the
	// baseline per-qubit 4 K device power.
	b := Breakdown(Baseline14nm())
	tot := b.Total()
	if tot < 1.9e-3 || tot > 2.5e-3 {
		t.Fatalf("baseline per-qubit power %.3g W, want ~2.16 mW", tot)
	}
	if share := b.RXDigital / tot; share < 0.50 || share > 0.60 {
		t.Fatalf("RX digital share %.3f, want ~0.547", share)
	}
	if share := b.DriveDigital / tot; share < 0.10 || share > 0.17 {
		t.Fatalf("drive digital share %.3f, want ~0.133", share)
	}
}

func TestBaselineQubitLimit(t *testing.T) {
	// Fig. 13(a): the baseline 4 K CMOS QCI supports <700 qubits under the
	// 1.5 W budget from device power alone.
	b := Breakdown(Baseline14nm())
	n := int(1.5 / b.Total())
	if n < 580 || n >= 700 {
		t.Fatalf("baseline device-power qubit limit %d, want <700 (~675)", n)
	}
}

func TestOpt1BinCounterRemoval(t *testing.T) {
	base := Breakdown(Baseline14nm())
	cfg := Baseline14nm()
	cfg.BinCounter = false
	opt := Breakdown(cfg)
	rxRed := 1 - opt.RXDigital/base.RXDigital
	totRed := 1 - opt.Total()/base.Total()
	if rxRed < 0.84 || rxRed > 0.92 {
		t.Fatalf("Opt-#1 RX reduction %.3f, want ~0.884", rxRed)
	}
	if totRed < 0.42 || totRed > 0.53 {
		t.Fatalf("Opt-#1 total reduction %.3f, want ~0.483", totRed)
	}
}

func TestOpt2DrivePrecision(t *testing.T) {
	cfg := Baseline14nm()
	cfg.BinCounter = false
	base := Breakdown(cfg)
	cfg.DriveBits = 6
	opt := Breakdown(cfg)
	dRed := 1 - opt.DriveDigital/base.DriveDigital
	if dRed < 0.27 || dRed > 0.36 {
		t.Fatalf("Opt-#2 drive digital reduction %.3f, want ~0.309", dRed)
	}
}

func TestOptimizedReachesNearTermTarget(t *testing.T) {
	// Fig. 13(a): Opt-#1+#2 lift the 4 K CMOS QCI to ~1,399 qubits.
	b := Breakdown(Optimized14nm())
	n := int(1.5 / b.Total())
	if n < 1250 || n > 1550 {
		t.Fatalf("optimized qubit limit %d, want ~1,399 (>1,152 near-term target)", n)
	}
	if n < 1152 {
		t.Fatal("must reach the 1,152-qubit near-term target")
	}
}

func TestAdvancedScaling(t *testing.T) {
	// Section 6.4.1: technology (4.15x) + voltage (16x) scaling → ~66x lower
	// device power.
	opt := Breakdown(Optimized14nm()).Total()
	adv := Breakdown(Advanced7nm()).Total()
	ratio := opt / adv
	if ratio < 55 || ratio > 75 {
		t.Fatalf("advanced scaling ratio %.1f, want ~66 (4.15 x 16)", ratio)
	}
}

func TestVoltageScalingQuadratic(t *testing.T) {
	cfg := Baseline14nm()
	cfg.AnalogScale = 1e-9 // isolate digital
	base := Breakdown(cfg).Total()
	cfg.Cond.VddScale = 0.5
	half := Breakdown(cfg).Total()
	if math.Abs(base/half-4) > 0.01 {
		t.Fatalf("Vdd/2 should quarter digital power, got ratio %.3f", base/half)
	}
}

func TestNodeScalingOrdering(t *testing.T) {
	if !(Node45.DynScale > Node22.DynScale && Node22.DynScale > Node14.DynScale && Node14.DynScale > Node7.DynScale) {
		t.Fatal("node power scaling must be monotonic")
	}
	if math.Abs(Node14.DynScale/Node7.DynScale-4.15) > 0.01 {
		t.Fatal("7 nm node must encode the 4.15x scaling from 14 nm")
	}
}

func TestStaticPowerByTemperature(t *testing.T) {
	comp := Component{Name: "x", Gates: 1000, Activity: 0.2}
	s300, d300 := comp.Power(Node22, Conditions{TempK: 300, VddScale: 1}, 2.5e9, 14)
	if s300 <= 0 || math.Abs(s300-0.30*d300) > 1e-12 {
		t.Fatalf("300 K static should be 30%% of dynamic, got %v vs %v", s300, d300)
	}
	s4, _ := comp.Power(Node22, Cryo4K(), 2.5e9, 14)
	if s4 != 0 {
		t.Fatal("power-gated 4 K static should be zero (leakage collapse)")
	}
}

func TestBitScalingOnlyWhereMarked(t *testing.T) {
	bitful := Component{Name: "a", Gates: 1000, Activity: 0.2, BitScaling: true}
	bitless := Component{Name: "b", Gates: 1000, Activity: 0.2}
	_, d14 := bitful.Power(Node14, Cryo4K(), 2.5e9, 14)
	_, d6 := bitful.Power(Node14, Cryo4K(), 2.5e9, 6)
	if d6 >= d14 {
		t.Fatal("bit-scaled component must shrink with fewer bits")
	}
	_, e14 := bitless.Power(Node14, Cryo4K(), 2.5e9, 14)
	_, e6 := bitless.Power(Node14, Cryo4K(), 2.5e9, 6)
	if e14 != e6 {
		t.Fatal("unscaled component must ignore bit width")
	}
}

func TestFDMReductionRaisesPerQubitDrivePower(t *testing.T) {
	// Opt-#7 context: FDM 32→20 means fewer qubits amortise each circuit.
	cfg := Optimized14nm()
	b32 := Breakdown(cfg)
	cfg.DriveFDM = 20
	b20 := Breakdown(cfg)
	if b20.DriveDigital+b20.DriveAnalog <= b32.DriveDigital+b32.DriveAnalog {
		t.Fatal("lower FDM should raise per-qubit drive power")
	}
	// But the polar modulator is per-circuit, so the increase is sub-linear.
	if r := b20.DriveDigital / b32.DriveDigital; r > 32.0/20.0+1e-9 {
		t.Fatalf("drive digital growth %.3f should not exceed 32/20", r)
	}
}

func TestClockMeetsHorseRidge(t *testing.T) {
	// Our model takes 2.5 GHz as the synthesis objective; every node we use
	// must close timing there.
	for _, n := range []Node{Node22, Node14, Node7} {
		if n.FMaxHz < 2.5e9 {
			t.Fatalf("%s cannot reach the 2.5 GHz Horse Ridge clock", n.Name)
		}
	}
}

func TestAdvancedDevicePowerBand(t *testing.T) {
	// The advanced design must land near 16 µW/qubit so that wire power
	// dominates (Fig. 18(a): wire ≈ 81%).
	tot := Breakdown(Advanced7nm()).Total()
	if tot < 10e-6 || tot > 25e-6 {
		t.Fatalf("advanced per-qubit device power %.3g W, want ~16 µW", tot)
	}
}
