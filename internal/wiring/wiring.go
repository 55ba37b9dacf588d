// Package wiring models the interconnect technologies of Table 2: the
// passive (heat-conduction/attenuation) and active (signal-dissipation) load
// each cable type places on the 4 K, 100 mK and 20 mK stages, and the
// bandwidth-driven power of the 300 K→4 K digital instruction links.
package wiring

// Stage identifies a refrigerator temperature stage.
type Stage int

const (
	Stage4K Stage = iota
	Stage100mK
	Stage20mK
	// Stage70K is the higher-budget stage of the Section 7.3 extension
	// (30 W cooling capacity per Krinner et al.), to which power-hungry
	// components can be offloaded.
	Stage70K
)

func (s Stage) String() string {
	switch s {
	case Stage4K:
		return "4K"
	case Stage100mK:
		return "100mK"
	case Stage20mK:
		return "20mK"
	case Stage70K:
		return "70K"
	default:
		return "?"
	}
}

// Load is a per-cable (passive, active) load in watts; active is at 100%
// activation and scales with the cable's duty cycle.
type Load struct {
	PassiveW float64
	ActiveW  float64
}

// At returns the dissipation at the given activity factor (0..1).
func (l Load) At(activity float64) float64 {
	return l.PassiveW + l.ActiveW*activity
}

// CableType is one interconnect technology of Table 2.
type CableType struct {
	Name  string
	Loads map[Stage]Load
}

// Load returns the per-cable load at a stage (zero if the cable does not
// reach that stage).
func (c CableType) Load(s Stage) Load { return c.Loads[s] }

// The Table 2 wiring rows (per cable, active loads at 100% activation).
var (
	// CoaxialCable is the 300 K-mK stainless coax (COAX SC-086/50-SS-SS).
	CoaxialCable = CableType{
		Name: "coaxial-cable",
		Loads: map[Stage]Load{
			Stage4K:    {PassiveW: 1e-3, ActiveW: 7.9e-6},
			Stage100mK: {PassiveW: 400e-9, ActiveW: 7.9e-9},
			Stage20mK:  {PassiveW: 13e-9, ActiveW: 0.79e-9},
		},
	}
	// Microstrip is the flexible multi-channel cable (DelftCircuits CrioFlex).
	Microstrip = CableType{
		Name: "microstrip",
		Loads: map[Stage]Load{
			Stage4K:    {PassiveW: 315e-6, ActiveW: 7.9e-6},
			Stage100mK: {PassiveW: 210e-9, ActiveW: 7.9e-9},
			Stage20mK:  {PassiveW: 4.3e-9, ActiveW: 0.79e-9},
		},
	}
	// PhotonicLink is the optical fiber with a 20 mK photodetector; the PD's
	// 790 nW active load is the scalability killer of Fig. 12(c).
	PhotonicLink = CableType{
		Name: "photonic-link",
		Loads: map[Stage]Load{
			Stage4K:    {PassiveW: 250e-9},
			Stage100mK: {PassiveW: 0.1e-9},
			Stage20mK:  {PassiveW: 0.003e-9, ActiveW: 790e-9},
		},
	}
	// SuperconductingCoax is the 4 K-mK NbTi coax (COAX SC-033/50-NbTi-CN):
	// 7.4x lower passive load than the 300 K coax at similar attenuation.
	SuperconductingCoax = CableType{
		Name: "superconducting-coax",
		Loads: map[Stage]Load{
			Stage100mK: {PassiveW: 400e-9 / 7.4, ActiveW: 7.9e-9},
			Stage20mK:  {PassiveW: 13e-9 / 7.4, ActiveW: 0.79e-9},
		},
	}
	// SuperconductingMicrostrip is the 4 K flexible Nb microstrip (Tuckerman
	// et al.), the long-term 4 K-mK interconnect.
	SuperconductingMicrostrip = CableType{
		Name: "superconducting-microstrip",
		Loads: map[Stage]Load{
			Stage100mK: {PassiveW: 0.1e-9, ActiveW: 7.9e-9},
			Stage20mK:  {PassiveW: 0.003e-9, ActiveW: 0.79e-9},
		},
	}
	// RoomTempDataMicrostrip is the 300 K→4 K digital instruction link used
	// by the 4 K QCIs (315 µW passive at 4 K per cable).
	RoomTempDataMicrostrip = CableType{
		Name: "data-microstrip",
		Loads: map[Stage]Load{
			Stage4K: {PassiveW: 315e-6, ActiveW: 7.9e-6},
		},
	}
)

// DataLink models the 300 K→4 K instruction stream as a bandwidth cost: the
// per-bit link energy dissipated at 4 K plus a passive share per physical
// cable. Opt-#6's 93% instruction-bandwidth compression attacks exactly this
// term (Fig. 18).
type DataLink struct {
	// EnergyPerBitJ is the 4 K dissipation per transported bit (calibrated
	// to the Fig. 18 wire share: 0.58 pJ/bit for the microstrip link).
	EnergyPerBitJ float64
	// CableCapacityBps is one physical cable's capacity.
	CableCapacityBps float64
	// Cable carries the per-cable passive load.
	Cable CableType
}

// DefaultDataLink returns the calibrated 300 K→4 K microstrip link.
func DefaultDataLink() DataLink {
	return DataLink{
		EnergyPerBitJ:    0.31e-12,
		CableCapacityBps: 2.5e9,
		Cable:            RoomTempDataMicrostrip,
	}
}

// PowerAt4K returns the 4 K wire power of an instruction stream with the
// given aggregate bandwidth (bits/s). EnergyPerBitJ is the all-in per-bit
// 4 K cost (drivers, receivers, and the amortised passive load of the
// multi-channel ribbon), which is how the link stays bandwidth-proportional
// — the property Opt-#6's 93% compression exploits.
func (d DataLink) PowerAt4K(bandwidthBps float64) float64 {
	if bandwidthBps <= 0 {
		return 0
	}
	return bandwidthBps * d.EnergyPerBitJ
}
