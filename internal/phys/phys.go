// Package phys defines the physical parameter sets QIsim's models consume:
// transmon qubits, readout resonators, and the operation specifications of
// Table 2 of the paper. All frequencies are angular unless suffixed Hz; all
// times are in seconds.
package phys

import "math"

// Physical constants.
const (
	// Phi0 is the magnetic flux quantum in Wb, the SFQ information carrier.
	Phi0 = 2.067833848e-15
	// BoltzmannK in J/K.
	BoltzmannK = 1.380649e-23
	// PlanckH in J·s.
	PlanckH = 6.62607015e-34
)

// Transmon describes a flux-tunable transmon qubit.
type Transmon struct {
	// FreqHz is the |0>→|1> transition frequency.
	FreqHz float64
	// AnharmonicityHz is f12 - f01 (negative for transmons).
	AnharmonicityHz float64
	// T1 and T2 are relaxation and dephasing times in seconds.
	T1, T2 float64
}

// DefaultTransmon returns the flux-tunable transmon used throughout the
// scalability analysis. T1/T2 follow Table 2 (ibm_mumbai, 2022-11-03).
func DefaultTransmon() Transmon {
	return Transmon{
		FreqHz:          5.0e9,
		AnharmonicityHz: -330e6,
		T1:              122e-6,
		T2:              118e-6,
	}
}

// Resonator describes a readout resonator dispersively coupled to a qubit.
type Resonator struct {
	// FreqHz is the bare resonator frequency.
	FreqHz float64
	// KappaHz is the linewidth (photon decay rate) in Hz.
	KappaHz float64
	// ChiHz is the dispersive shift in Hz (state-dependent pull is ±Chi).
	ChiHz float64
}

// Kappa returns the angular linewidth.
func (r Resonator) Kappa() float64 { return 2 * math.Pi * r.KappaHz }

// Chi returns the angular dispersive shift.
func (r Resonator) Chi() float64 { return 2 * math.Pi * r.ChiHz }

// DefaultResonator returns readout-resonator parameters consistent with the
// 517 ns readout of Table 2.
func DefaultResonator() Resonator {
	return Resonator{
		FreqHz:  6.8e9,
		KappaHz: 2.7e6,
		ChiHz:   1.5e6,
	}
}

// OpSpec gives the latency and intrinsic (decoherence-free) error of one
// quantum operation category, following Table 2.
type OpSpec struct {
	Error   float64
	Latency float64 // seconds
}

// OperationSpecs bundles the Table 2 quantum-operation specification for one
// technology family.
type OperationSpecs struct {
	OneQ    OpSpec
	TwoQ    OpSpec
	Readout OpSpec
}

// CMOSOperationSpecs returns the 300K/4K CMOS column of Table 2.
func CMOSOperationSpecs() OperationSpecs {
	return OperationSpecs{
		OneQ:    OpSpec{Error: 8.17e-7, Latency: 25e-9},
		TwoQ:    OpSpec{Error: 7.8e-4, Latency: 50e-9},
		Readout: OpSpec{Error: 1.00e-3, Latency: 517e-9},
	}
}

// SFQReadoutSpec details the four-stage SFQ readout of Table 2.
type SFQReadoutSpec struct {
	ResonatorDriving OpSpec // 578.2 ns; error shared with tunnelling
	JPMTunneling     OpSpec // 12.8 ns
	JPMReadout       OpSpec // 4 ns, zero observed error
	Reset            OpSpec // 70 ns
}

// TotalLatency returns the end-to-end latency of one unshared SFQ readout.
func (s SFQReadoutSpec) TotalLatency() float64 {
	return s.ResonatorDriving.Latency + s.JPMTunneling.Latency + s.JPMReadout.Latency + s.Reset.Latency
}

// TotalError returns the combined readout error across stages.
func (s SFQReadoutSpec) TotalError() float64 {
	e := 1.0
	for _, st := range []OpSpec{s.ResonatorDriving, s.JPMTunneling, s.JPMReadout, s.Reset} {
		e *= 1 - st.Error
	}
	return 1 - e
}

// SFQOperationSpecs returns the SFQ column of Table 2 plus the staged readout.
func SFQOperationSpecs() (OperationSpecs, SFQReadoutSpec) {
	ro := SFQReadoutSpec{
		// Table 2 attributes 7.8e-3 to driving+tunnelling jointly; we put it
		// on the driving stage and keep tunnelling at zero extra error.
		ResonatorDriving: OpSpec{Error: 7.8e-3, Latency: 578.2e-9},
		JPMTunneling:     OpSpec{Error: 0, Latency: 12.8e-9},
		JPMReadout:       OpSpec{Error: 0, Latency: 4e-9},
		Reset:            OpSpec{Error: 7.0e-3, Latency: 70e-9},
	}
	return OperationSpecs{
		OneQ:    OpSpec{Error: 1.18e-4, Latency: 25e-9},
		TwoQ:    OpSpec{Error: 1.09e-3, Latency: 50e-9},
		Readout: OpSpec{Error: ro.TotalError(), Latency: ro.TotalLatency()},
	}, ro
}

// ClockFreqs gives the Table 2 controller clock frequencies.
type ClockFreqs struct {
	CMOS4KHz float64
	SFQHz    float64
	// SFQBoostHz is the maximum SFQ frequency used by Opt-#8 fast driving.
	SFQBoostHz float64
}

// DefaultClocks returns 2.5 GHz (4K CMOS), 24 GHz (SFQ) and the 48 GHz
// selective boost of Opt-#8.
func DefaultClocks() ClockFreqs {
	return ClockFreqs{CMOS4KHz: 2.5e9, SFQHz: 24e9, SFQBoostHz: 48e9}
}
