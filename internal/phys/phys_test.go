package phys

import (
	"math"
	"testing"
)

func TestDefaultTransmonTable2(t *testing.T) {
	q := DefaultTransmon()
	if q.T1 != 122e-6 || q.T2 != 118e-6 {
		t.Fatalf("T1/T2 = %v/%v, want Table 2 values 122us/118us", q.T1, q.T2)
	}
	if q.AnharmonicityHz >= 0 {
		t.Fatal("transmon anharmonicity must be negative")
	}
}

func TestCMOSOperationSpecs(t *testing.T) {
	s := CMOSOperationSpecs()
	if s.OneQ.Latency != 25e-9 || s.TwoQ.Latency != 50e-9 || s.Readout.Latency != 517e-9 {
		t.Fatal("CMOS latencies do not match Table 2")
	}
	if s.OneQ.Error != 8.17e-7 || s.TwoQ.Error != 7.8e-4 || s.Readout.Error != 1.00e-3 {
		t.Fatal("CMOS errors do not match Table 2")
	}
}

func TestSFQReadoutSpec(t *testing.T) {
	_, ro := SFQOperationSpecs()
	total := ro.TotalLatency()
	want := 578.2e-9 + 12.8e-9 + 4e-9 + 70e-9 // 665 ns
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("SFQ readout latency = %v, want %v", total, want)
	}
	if e := ro.TotalError(); e < 7.8e-3 || e > 1.6e-2 {
		t.Fatalf("SFQ readout total error = %v, outside plausible Table 2 band", e)
	}
}

func TestSFQOperationSpecs(t *testing.T) {
	s, _ := SFQOperationSpecs()
	if s.OneQ.Error != 1.18e-4 || s.TwoQ.Error != 1.09e-3 {
		t.Fatal("SFQ gate errors do not match Table 2")
	}
}

func TestDefaultClocks(t *testing.T) {
	c := DefaultClocks()
	if c.CMOS4KHz != 2.5e9 || c.SFQHz != 24e9 || c.SFQBoostHz != 48e9 {
		t.Fatal("clock defaults do not match Table 2 / Opt-#8")
	}
	if c.SFQBoostHz != 2*c.SFQHz {
		t.Fatal("Opt-#8 boost should double the SFQ clock")
	}
}
