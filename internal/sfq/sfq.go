// Package sfq models the superconducting single-flux-quantum circuits of the
// SFQ-based QCI: an RSFQ/ERSFQ cell library, circuit composition with JJ
// counts and critical-path depth, and static/dynamic power and frequency
// estimation. It substitutes for the paper's Yosys+XQsim synthesis flow: the
// framework consumes only per-circuit {JJ count, static power, dynamic
// energy, fmax}, which this model provides and which we validate against the
// post-layout anchor values of Fig. 10.
package sfq

import (
	"math"

	"qisim/internal/phys"
)

// Tech selects the SFQ logic family.
type Tech int

const (
	// RSFQ is resistor-biased rapid SFQ: static power in every bias resistor.
	RSFQ Tech = iota
	// ERSFQ is the energy-efficient variant with inductive biasing: zero
	// static power, roughly doubled switching energy (the feeding JJ also
	// switches).
	ERSFQ
)

func (t Tech) String() string {
	if t == ERSFQ {
		return "ERSFQ"
	}
	return "RSFQ"
}

// Device carries the per-JJ device parameters of the fabrication process.
type Device struct {
	Tech Tech
	// CriticalCurrentA is the JJ critical current Ic (MITLL SFQ5ee: 100 µA).
	CriticalCurrentA float64
	// BiasVoltageV is the bias-network voltage for RSFQ static power.
	BiasVoltageV float64
	// BiasFraction is Ib/Ic (typically 0.7).
	BiasFraction float64
	// IcScale scales Ic for mK operation (the paper applies 0.01·Ic to
	// 20 mK devices following Howington/McDermott).
	IcScale float64
	// GateDelayS is the per-stage logic delay limiting fmax.
	GateDelayS float64
}

// MITLLSFQ5ee returns the MIT-LL SFQ5ee-process device used for the 4 K
// circuits (chosen by the paper to keep the artifact open-source).
func MITLLSFQ5ee(tech Tech) Device {
	return Device{
		Tech:             tech,
		CriticalCurrentA: 100e-6,
		BiasVoltageV:     2.6e-3,
		BiasFraction:     0.7,
		IcScale:          1,
		GateDelayS:       5.2e-12,
	}
}

// MKDevice returns the 20 mK variant with Ic scaled by 0.01.
func MKDevice(tech Tech) Device {
	d := MITLLSFQ5ee(tech)
	d.IcScale = 0.01
	return d
}

// StaticPowerPerJJ returns the bias-network dissipation per junction.
func (d Device) StaticPowerPerJJ() float64 {
	if d.Tech == ERSFQ {
		return 0
	}
	return d.CriticalCurrentA * d.IcScale * d.BiasFraction * d.BiasVoltageV
}

// SwitchEnergyPerJJ returns the energy of one 2π phase slip, Ic·Φ0 (doubled
// for ERSFQ's bias-JJ co-switching).
func (d Device) SwitchEnergyPerJJ() float64 {
	e := d.CriticalCurrentA * d.IcScale * phys.Phi0
	if d.Tech == ERSFQ {
		e *= 2
	}
	return e
}

// Cell is one SFQ logic cell type.
type Cell struct {
	Name string
	JJs  int
}

// The cell library (JJ counts follow the ColdFlux SFQ5ee library scale).
var (
	JTL   = Cell{"jtl", 2}
	DFF   = Cell{"dff", 6}
	NDRO  = Cell{"ndro", 11}
	Split = Cell{"split", 3}
	Merge = Cell{"merge", 7}
	And   = Cell{"and", 11}
	Or    = Cell{"or", 9}
	Not   = Cell{"not", 10}
	Xor   = Cell{"xor", 8}
	SFQDC = Cell{"sfqdc", 12} // SFQ-to-DC converter cell of the pulse circuit
)

// Circuit is a composed SFQ circuit: named cell counts plus pipeline depth.
type Circuit struct {
	Name  string
	Cells map[Cell]int
	// Depth is the critical-path stage count limiting fmax.
	Depth int
	// Activity is the average per-JJ switching probability per clock cycle
	// under the ESM workload (from the cycle-accurate simulator; stored here
	// as the calibrated default).
	Activity float64
}

// NewCircuit returns an empty circuit.
func NewCircuit(name string, depth int, activity float64) *Circuit {
	return &Circuit{Name: name, Cells: make(map[Cell]int), Depth: depth, Activity: activity}
}

// Add includes n instances of cell c.
func (c *Circuit) Add(cell Cell, n int) *Circuit {
	c.Cells[cell] += n
	return c
}

// JJCount returns the total junction count.
func (c *Circuit) JJCount() int {
	total := 0
	for cell, n := range c.Cells {
		total += cell.JJs * n
	}
	return total
}

// StaticPower returns the circuit's static dissipation on the given device.
func (c *Circuit) StaticPower(d Device) float64 {
	return float64(c.JJCount()) * d.StaticPowerPerJJ()
}

// DynamicPower returns switching power at clock f with the circuit's
// activity factor.
func (c *Circuit) DynamicPower(d Device, f float64) float64 {
	return float64(c.JJCount()) * c.Activity * f * d.SwitchEnergyPerJJ()
}

// TotalPower is static + dynamic at clock f.
func (c *Circuit) TotalPower(d Device, f float64) float64 {
	return c.StaticPower(d) + c.DynamicPower(d, f)
}

// FMax returns the depth-limited maximum clock frequency.
func (c *Circuit) FMax(d Device) float64 {
	if c.Depth <= 0 {
		return math.Inf(1)
	}
	return 1 / (float64(c.Depth) * d.GateDelayS)
}

// DriveSpec parameterises the SFQ drive-circuit builders (Fig. 5).
type DriveSpec struct {
	Qubits int // qubits per drive group (8 in the Fig. 9 layouts)
	BS     int // #BS: simultaneous bitstreams (8 baseline; Opt-#5 → 1)
	RyBits int // Ry(π/2) selection bits (5)
	RzBits int // Rz(φ) selection bits (16) → 2^8 φ values materialised
	// PhiValues is the number of distinct Rz(φ) streams the bitstream
	// generator materialises (256 in Opt-#4's description).
	PhiValues int
	// StreamLen is the pulse-stream length in DFF stages per output register.
	StreamLen int
}

// DefaultDriveSpec matches the Fig. 9 post-layout configuration: 21-bit
// bitstream (5-bit Ry, 16-bit Rz), eight qubits, #BS = 8.
func DefaultDriveSpec() DriveSpec {
	return DriveSpec{Qubits: 8, BS: 8, RyBits: 5, RzBits: 16, PhiValues: 256, StreamLen: 12}
}

// ControlDataBuffer builds the per-group instruction buffer: shift registers
// that collect next-instruction bits (clocked by Valid) feeding an NDRO
// memory broadcast every cycle (Section 3.4.1 re-design).
func ControlDataBuffer(s DriveSpec) *Circuit {
	bits := s.RyBits + s.RzBits + s.Qubits // bitstream select + per-qubit gate select
	c := NewCircuit("control-data-buffer", 12, 0.02)
	c.Add(DFF, bits)   // shift register stages
	c.Add(NDRO, bits)  // non-destructive readout memory
	c.Add(Split, bits) // fanout of Go/Valid
	c.Add(JTL, 4*bits) // interconnect
	return c
}

// BitstreamGenerator builds the baseline generator: one output shift
// register per φ value (256 output shift registers), each StreamLen DFFs
// deep plus fanout and interconnect — the power hog Opt-#4 eliminates.
// Counts are calibrated so the generator carries ~23.6% of the per-qubit 4 K
// power, matching the Fig. 16/18 breakdown.
func BitstreamGenerator(s DriveSpec) *Circuit {
	c := NewCircuit("bitstream-generator", 10, 0.05)
	c.Add(DFF, s.PhiValues*s.StreamLen)
	c.Add(Split, s.PhiValues*6)
	c.Add(JTL, s.PhiValues*14)
	return c
}

// LowPowerBitstreamGenerator builds the Opt-#4 re-design: a single
// splitter-equipped shift register holding the Rz(NΔφ)·Ry(π/2) pulse whose
// taps broadcast to the φ outputs — ~98% fewer JJs.
func LowPowerBitstreamGenerator(s DriveSpec) *Circuit {
	c := NewCircuit("bitstream-generator-lp", 10, 0.05)
	c.Add(DFF, s.StreamLen+s.RzBits) // the one shared register
	c.Add(Split, s.PhiValues)        // per-φ output taps
	c.Add(JTL, s.PhiValues/2)
	return c
}

// BitstreamController builds the #BS-way stream selector: each of the BS
// lanes muxes one of the φ streams and broadcasts it to the per-qubit
// controllers. Its cost is what Opt-#5 attacks by cutting #BS to 1.
func BitstreamController(s DriveSpec) *Circuit {
	c := NewCircuit("bitstream-controller", 14, 0.04)
	// Per lane: a PhiValues-wide NDRO select tree, its merge tree, and the
	// PTL/JTL interconnect that dominates routed SFQ chips.
	c.Add(NDRO, s.BS*s.PhiValues)
	c.Add(Merge, s.BS*(s.PhiValues-1))
	c.Add(Split, s.BS*s.PhiValues/2)
	c.Add(JTL, s.BS*s.PhiValues*3)
	return c
}

// PerQubitController builds the per-qubit BS-to-1 selector.
func PerQubitController(s DriveSpec) *Circuit {
	c := NewCircuit("per-qubit-controller", 8, 0.04)
	per := s.BS*16 + 24
	c.Add(NDRO, s.Qubits*per/8)
	c.Add(Merge, s.Qubits*per/10)
	c.Add(JTL, s.Qubits*per)
	return c
}

// PulseCircuit builds the Opt-capable SFQ pulse circuit (Fig. 5(c)): the
// SFQDC controller with per-subgroup CZ-select bitstreams at 4 K plus the
// per-qubit SFQDC cell banks.
func PulseCircuit(qubits, subgroups, amplitudeBits int) *Circuit {
	c := NewCircuit("pulse-circuit", 12, 0.03)
	cellsPerQubit := 1 << amplitudeBits // unary-weighted SFQDC bank
	if cellsPerQubit < 8 {
		cellsPerQubit = 8
	}
	c.Add(SFQDC, qubits*cellsPerQubit)
	c.Add(DFF, subgroups*96) // per-subgroup CZ-select bitstream storage
	c.Add(NDRO, qubits*8)    // per-qubit mask
	c.Add(Split, qubits*16)
	c.Add(JTL, qubits*160)
	return c
}

// ReadoutFrontEnd builds the 4 K circuits that send/receive SFQ pulses
// to/from the mK JPM readout circuit (Section 3.4.3-iii), including the
// resonator-driving and JPM-pulse variants of the drive/pulse circuits.
func ReadoutFrontEnd(qubits int) *Circuit {
	c := NewCircuit("readout-frontend", 10, 0.02)
	c.Add(DFF, qubits*96)
	c.Add(NDRO, qubits*24)
	c.Add(Merge, qubits*12)
	c.Add(Split, qubits*16)
	c.Add(JTL, qubits*320)
	return c
}

// MKJPMReadout builds the 20 mK JPM readout circuit (per shared group): the
// LJJ trains and per-JPM couplers are inductance-biased (zero static power),
// so only the fixed discriminating core (clock/data DFF comparator, merge
// tree, output driver) carries bias power. With Opt-#3 one such core serves
// `sharing` JPMs, dividing the per-qubit mK static power by exactly the
// sharing degree — the "eight times" of the paper.
func MKJPMReadout(sharing int) *Circuit {
	c := NewCircuit("mk-jpm-readout", 6, 0.01)
	c.Add(DFF, 4)
	c.Add(Merge, 2)
	c.Add(Split, 2)
	c.Add(NDRO, 1)
	c.Add(JTL, 8)
	_ = sharing // LJJ couplers per JPM are zero-static; core is shared
	return c
}
