package isa

import "fmt"

// Word is a packed instruction as raw bits (LSB-first field order).
type Word struct {
	Bits  uint64
	Width int
}

// DriveInstr is an extended-drive instruction (Section 3.3.1 ISA).
type DriveInstr struct {
	StartTime uint64
	Target    int
	// GateAddr doubles as the Rz angle when RzMode is set (the field-reuse
	// trick of the extended ISA).
	GateAddr uint64
	RzMode   bool
}

// EncodeDrive packs a drive instruction in the extended format, its fields
// LSB-first in the format's order; a value wider than its field is an error.
func EncodeDrive(in DriveInstr) (Word, error) {
	rz := uint64(0)
	if in.RzMode {
		rz = 1
	}
	values := []uint64{in.StartTime, uint64(in.Target), in.GateAddr, rz}
	var w Word
	for i, fl := range ExtendedDrive().Fields {
		if values[i] >= uint64(1)<<fl.Bits {
			return Word{}, fmt.Errorf("isa: field %q value %d exceeds %d bits", fl.Name, values[i], fl.Bits)
		}
		w.Bits |= values[i] << w.Width
		w.Width += fl.Bits
	}
	return w, nil
}
