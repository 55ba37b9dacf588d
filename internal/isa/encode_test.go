package isa

import (
	"fmt"
	"testing"
	"testing/quick"
)

// decodeDrive unpacks an extended-drive word field by field, LSB first in
// the format's order: the layout oracle the round-trip tests hold
// EncodeDrive to.
func decodeDrive(w Word) (DriveInstr, error) {
	f := ExtendedDrive()
	if w.Width != f.Bits() {
		return DriveInstr{}, fmt.Errorf("word width %d != format width %d", w.Width, f.Bits())
	}
	v := make([]uint64, len(f.Fields))
	shift := 0
	for i, fl := range f.Fields {
		v[i] = w.Bits >> shift & (1<<fl.Bits - 1)
		shift += fl.Bits
	}
	return DriveInstr{StartTime: v[0], Target: int(v[1]), GateAddr: v[2], RzMode: v[3] == 1}, nil
}

func TestDriveEncodeDecodeRoundTrip(t *testing.T) {
	in := DriveInstr{StartTime: 123456, Target: 17, GateAddr: 4095, RzMode: true}
	w, err := EncodeDrive(in)
	if err != nil {
		t.Fatal(err)
	}
	if w.Width != 43 {
		t.Fatalf("extended drive word is %d bits, want 43", w.Width)
	}
	out, err := decodeDrive(w)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed the instruction: %+v vs %+v", out, in)
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	if _, err := EncodeDrive(DriveInstr{Target: 64}); err == nil {
		t.Fatal("5-bit target field must reject 64")
	}
	if _, err := EncodeDrive(DriveInstr{GateAddr: 1 << 13}); err == nil {
		t.Fatal("13-bit gate-address field must reject 2^13")
	}
}

func TestQuickDriveRoundTrip(t *testing.T) {
	f := func(start uint32, target uint8, addr uint16, rz bool) bool {
		in := DriveInstr{
			StartTime: uint64(start) & ((1 << 24) - 1),
			Target:    int(target & 31),
			GateAddr:  uint64(addr) & ((1 << 13) - 1),
			RzMode:    rz,
		}
		w, err := EncodeDrive(in)
		if err != nil {
			return false
		}
		out, err := decodeDrive(w)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
