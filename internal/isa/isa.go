// Package isa defines the QCI instruction-set encodings of Sections 3.3/3.4
// and the 300 K→4 K bandwidth accounting that drives the wire-power model:
// the Horse Ridge drive ISA (42 bits/op), our extended virtual-Rz/Z-corrected
// variant, the mask-based pulse and SFQ ISAs, and the Opt-#6 FTQC-friendly
// instruction masking that compresses the single-qubit stream by ~93%.
package isa

import "fmt"

// Field is one instruction field.
type Field struct {
	Name string
	Bits int
}

// Format is a named instruction encoding.
type Format struct {
	Name   string
	Fields []Field
	// QubitsPerInstr is how many qubits one instruction addresses (mask
	// formats address a whole group at once).
	QubitsPerInstr int
}

// Bits returns the instruction width.
func (f Format) Bits() int {
	total := 0
	for _, fl := range f.Fields {
		total += fl.Bits
	}
	return total
}

// BitsPerQubitOp returns the effective bits charged per single-qubit
// operation.
func (f Format) BitsPerQubitOp() float64 {
	q := f.QubitsPerInstr
	if q < 1 {
		q = 1
	}
	return float64(f.Bits()) / float64(q)
}

func (f Format) String() string {
	return fmt.Sprintf("%s(%d bits, %d qubits/instr)", f.Name, f.Bits(), f.QubitsPerInstr)
}

// HorseRidgeDrive is the baseline single-qubit drive ISA (42 bits per
// operation: start time, target qubit, gate-table address — Fig. 18(a)).
func HorseRidgeDrive() Format {
	return Format{
		Name: "horse-ridge-drive",
		Fields: []Field{
			{"start-time", 24},
			{"target-qubit", 5},
			{"gate-address", 13},
		},
		QubitsPerInstr: 1,
	}
}

// ExtendedDrive is our Section 3.3.1 extension with the virtual-Rz mode bit
// (the gate-address field doubles as the Rz angle when the mode bit is set).
func ExtendedDrive() Format {
	f := HorseRidgeDrive()
	f.Name = "extended-drive"
	f.Fields = append(f.Fields, Field{"rz-mode", 1})
	return f
}

// MaskedDrive is the Opt-#6 FTQC-friendly ISA: a shared instruction-select
// plus a per-qubit mask over the drive group. With the Ry(π/2)·Rz(nπ/4)
// basis-gate set, lattice-surgery single-qubit layers compress to one
// instruction per group (Fig. 18(b)).
func MaskedDrive(groupSize int) Format {
	return Format{
		Name: "masked-drive",
		Fields: []Field{
			{"instruction-select", 3},
			{"start-time", 24},
			{"per-qubit-mask", groupSize},
		},
		QubitsPerInstr: groupSize,
	}
}

// HorseRidgePulse is the baseline per-qubit CZ pulse ISA (start time,
// length, amplitude — Section 3.3.2 "existing design").
func HorseRidgePulse() Format {
	return Format{
		Name: "horse-ridge-pulse",
		Fields: []Field{
			{"start-time", 24},
			{"length", 10},
			{"amplitude", 14},
		},
		QubitsPerInstr: 1,
	}
}

// HorseRidgeReadout is the baseline per-qubit readout trigger.
func HorseRidgeReadout() Format {
	return Format{
		Name: "horse-ridge-readout",
		Fields: []Field{
			{"start-time", 24},
			{"duration", 10},
		},
		QubitsPerInstr: 1,
	}
}

// PulseISA is the Section 3.3.2 mask-based CZ ISA: per-qubit valid bit plus
// a 2-bit CZ-target (which of the four lattice neighbours), with a shared
// start time.
func PulseISA(groupSize int) Format {
	return Format{
		Name: "pulse",
		Fields: []Field{
			{"start-time", 24},
			{"per-qubit-valid", groupSize},
			{"per-qubit-cz-target", 2 * groupSize},
		},
		QubitsPerInstr: groupSize,
	}
}

// SFQDrive is the DigiQ-style drive ISA: bitstream select (5-bit Ry + 16-bit
// Rz) broadcast to the group plus per-qubit gate-select bits.
func SFQDrive(groupSize, bs int) Format {
	sel := 1
	for (1 << sel) < bs+1 {
		sel++
	}
	return Format{
		Name: "sfq-drive",
		Fields: []Field{
			{"bitstream-select", 21},
			{"per-qubit-gate-select", groupSize * sel},
		},
		QubitsPerInstr: groupSize,
	}
}

// SFQPulse is the Section 3.4.2 SFQ pulse ISA: per-subgroup CZ select plus
// the per-qubit mask.
func SFQPulse(groupSize, subgroups int) Format {
	return Format{
		Name: "sfq-pulse",
		Fields: []Field{
			{"cz-select", 2 * subgroups},
			{"per-qubit-mask", groupSize},
		},
		QubitsPerInstr: groupSize,
	}
}

// ReadoutISA is the TX/RX trigger (start time + duration + enables).
func ReadoutISA(groupSize int) Format {
	return Format{
		Name: "readout",
		Fields: []Field{
			{"start-time", 24},
			{"duration", 10},
			{"per-qubit-enable", groupSize},
		},
		QubitsPerInstr: groupSize,
	}
}

// Traffic summarises an instruction stream's bandwidth demand.
type Traffic struct {
	// OpsPerQubitPerRound counts instruction-issues per qubit per ESM round
	// for each stream.
	DriveOps, PulseOps, ReadoutOps float64
	// RoundTime is the ESM round duration in seconds.
	RoundTime float64
}

// ESMTraffic returns the canonical ESM instruction counts: two single-qubit
// layers, four CZ layers, one readout per round (per the Fig. 1(b) circuit;
// data qubits idle through the drive stream under masking).
func ESMTraffic(roundTime float64) Traffic {
	return Traffic{DriveOps: 2, PulseOps: 4, ReadoutOps: 1, RoundTime: roundTime}
}

// Bandwidth computes the per-qubit 300 K→4 K bandwidth (bits/s) of an ISA
// triple under the given traffic.
func Bandwidth(drive, pulse, readout Format, tr Traffic) float64 {
	bits := tr.DriveOps*drive.BitsPerQubitOp() +
		tr.PulseOps*pulse.BitsPerQubitOp() +
		tr.ReadoutOps*readout.BitsPerQubitOp()
	return bits / tr.RoundTime
}

// BaselineCMOSBandwidth returns the per-qubit 300 K→4 K bandwidth of the
// baseline Horse Ridge ISA triple under ESM traffic.
func BaselineCMOSBandwidth(roundTime float64) float64 {
	tr := ESMTraffic(roundTime)
	return Bandwidth(HorseRidgeDrive(), HorseRidgePulse(), HorseRidgeReadout(), tr)
}

// MaskedCMOSBandwidth returns the Opt-#6 bandwidth: masked drive ISA with
// the Ry(π/2)·Rz(nπ/4) basis-gate fusion (each H·Rz pair becomes one drive
// instruction, so drive ops fall 2 → 1 per round), trigger-only pulse
// re-issues (the per-neighbour CZ amplitude/target tables persist in the
// 4 K instruction memories across the repetitive ESM rounds), and a grouped
// readout trigger.
func MaskedCMOSBandwidth(roundTime float64, groupSize int) float64 {
	tr := ESMTraffic(roundTime)
	tr.DriveOps = 1
	trigger := Format{
		Name:           "pulse-trigger",
		Fields:         []Field{{"start-time", 24}, {"table-select", 6}},
		QubitsPerInstr: groupSize,
	}
	return Bandwidth(MaskedDrive(groupSize), trigger, ReadoutISA(groupSize), tr)
}

// SFQBandwidth returns the per-qubit bandwidth of the SFQ ISA triple.
func SFQBandwidth(roundTime float64, groupSize, bs int) float64 {
	tr := ESMTraffic(roundTime)
	return Bandwidth(SFQDrive(groupSize, bs), SFQPulse(groupSize, 4), ReadoutISA(groupSize), tr)
}
