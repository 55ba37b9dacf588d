package wiring

import (
	"math"
	"testing"
)

func TestTable2CoaxLoads(t *testing.T) {
	l := CoaxialCable.Load(Stage100mK)
	if l.PassiveW != 400e-9 || l.ActiveW != 7.9e-9 {
		t.Fatalf("coax 100mK load %+v does not match Table 2", l)
	}
	if CoaxialCable.Load(Stage4K).PassiveW != 1e-3 {
		t.Fatal("coax 4K passive must be 1 mW (Table 2)")
	}
}

func TestPhotonicPDActiveLoad(t *testing.T) {
	l := PhotonicLink.Load(Stage20mK)
	if l.ActiveW != 790e-9 {
		t.Fatal("photodetector active load must be 790 nW at 20 mK")
	}
	// Passive load of fiber is negligible vs coax.
	if l.PassiveW >= CoaxialCable.Load(Stage20mK).PassiveW/100 {
		t.Fatal("fiber passive load should be negligible vs coax")
	}
}

func TestSuperconductingCoax7p4x(t *testing.T) {
	r := CoaxialCable.Load(Stage100mK).PassiveW / SuperconductingCoax.Load(Stage100mK).PassiveW
	if math.Abs(r-7.4) > 1e-9 {
		t.Fatalf("superconducting coax passive ratio %.2f, want 7.4 (Table 2 note)", r)
	}
}

func TestLoadActivityScaling(t *testing.T) {
	l := Load{PassiveW: 100e-9, ActiveW: 10e-9}
	if l.At(0) != 100e-9 {
		t.Fatal("zero activity should leave only passive load")
	}
	if math.Abs(l.At(1)-110e-9) > 1e-18 {
		t.Fatal("full activity should add the whole active load")
	}
	if math.Abs(l.At(0.5)-105e-9) > 1e-18 {
		t.Fatal("active load must scale linearly with duty cycle")
	}
}

func TestMissingStageIsZero(t *testing.T) {
	if SuperconductingMicrostrip.Load(Stage4K) != (Load{}) {
		t.Fatal("a 4K-mK cable places no load at 4K in this model")
	}
}

func TestDataLinkBandwidthProportional(t *testing.T) {
	d := DefaultDataLink()
	p1 := d.PowerAt4K(100e6)
	p2 := d.PowerAt4K(200e6)
	if math.Abs(p2-2*p1) > 1e-15 {
		t.Fatal("data-link power must be proportional to bandwidth")
	}
	if d.PowerAt4K(0) != 0 {
		t.Fatal("zero bandwidth costs nothing")
	}
}

func TestDataLinkCalibration(t *testing.T) {
	// The Fig. 18 calibration: ~226 Mb/s per qubit of Horse Ridge ISA
	// traffic costs ~70 µW — the dominant (81%) share of the advanced
	// design's 4 K power.
	d := DefaultDataLink()
	p := d.PowerAt4K(226e6)
	if p < 55e-6 || p > 85e-6 {
		t.Fatalf("per-qubit wire power %.3g W, want ~70 µW", p)
	}
}

func TestStageString(t *testing.T) {
	if Stage4K.String() != "4K" || Stage100mK.String() != "100mK" || Stage20mK.String() != "20mK" {
		t.Fatal("stage names changed")
	}
}
