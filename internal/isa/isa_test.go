package isa

import (
	"math"
	"testing"
)

func TestHorseRidgeDrive42Bits(t *testing.T) {
	// Fig. 18(a): 42 bits per single-qubit operation.
	if got := HorseRidgeDrive().Bits(); got != 42 {
		t.Fatalf("Horse Ridge drive ISA = %d bits, want 42", got)
	}
}

func TestExtendedDriveAddsRzMode(t *testing.T) {
	if got := ExtendedDrive().Bits(); got != 43 {
		t.Fatalf("extended drive ISA = %d bits, want 43 (42 + rz-mode)", got)
	}
}

func TestMaskedDriveCompression(t *testing.T) {
	// Opt-#6: the masked drive's per-qubit cost shrinks with group size.
	if MaskedDrive(32).BitsPerQubitOp() >= MaskedDrive(8).BitsPerQubitOp() {
		t.Fatal("larger groups should amortise the shared fields")
	}
}

func TestBandwidthComputation(t *testing.T) {
	tr := ESMTraffic(1e-6)
	bw := Bandwidth(HorseRidgeDrive(), HorseRidgePulse(), HorseRidgeReadout(), tr)
	// 2·42 + 4·48 + 1·34 = 310 bits per µs = 310 Mb/s.
	if math.Abs(bw-310e6) > 1 {
		t.Fatalf("ESM bandwidth %v, want 310 Mb/s", bw)
	}
}

func TestOpt6EndToEndReduction(t *testing.T) {
	// Baseline vs masked ISA triple under the same round time: ~90%+
	// total bandwidth reduction (paper: 93%).
	rt := 1373e-9
	base := BaselineCMOSBandwidth(rt)
	opt := MaskedCMOSBandwidth(rt, 32)
	red := 1 - opt/base
	if red < 0.88 || red > 0.99 {
		t.Fatalf("Opt-#6 total reduction %.3f, want ~0.93", red)
	}
}

func TestSFQBandwidthModest(t *testing.T) {
	// The SFQ broadcast ISA is already compact: well under the Horse Ridge
	// baseline at the same round time.
	rt := 915e-9
	sfq := SFQBandwidth(rt, 8, 8)
	cmos := BaselineCMOSBandwidth(rt)
	if sfq >= cmos/3 {
		t.Fatalf("SFQ bandwidth %.3g should be far below CMOS baseline %.3g", sfq, cmos)
	}
}

func TestSFQDriveSelectWidth(t *testing.T) {
	// 8 lanes need 4 select bits (values 0..8 incl. no-op).
	f := SFQDrive(8, 8)
	if f.Bits() != 21+8*4 {
		t.Fatalf("SFQ drive bits = %d, want 53", f.Bits())
	}
	f1 := SFQDrive(8, 1)
	if f1.Bits() >= f.Bits() {
		t.Fatal("#BS=1 should shrink the per-qubit select")
	}
}

func TestFormatString(t *testing.T) {
	s := HorseRidgeDrive().String()
	if s == "" {
		t.Fatal("empty format description")
	}
}

func TestPulseISAMaskFields(t *testing.T) {
	f := PulseISA(8)
	// 24 + 8 valid + 16 cz-target = 48 bits over 8 qubits = 6 bits/qubit-op.
	if f.Bits() != 48 || math.Abs(f.BitsPerQubitOp()-6) > 1e-12 {
		t.Fatalf("pulse ISA = %d bits (%.1f/qubit), want 48 (6)", f.Bits(), f.BitsPerQubitOp())
	}
}
