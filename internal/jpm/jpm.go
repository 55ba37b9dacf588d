// Package jpm implements the SFQ-based readout path of the paper (Section
// 3.4.3): resonator driving with SFQ pulse trains, JPM tunnelling, the
// mK-located LJJ readout circuit, and reset — together with the Opt-#3
// sharing/pipelining scheduler and the Opt-#8 fast resonator driving and
// unsharing.
//
// The LJJ circuit is modelled behaviourally (a substitute for the paper's
// JoSIM SPICE runs): the framework only consumes its latency and failure
// rate, and the behavioural model reproduces both, including the 40 pH→4 pH
// re-design that enables 8-way sharing at 13 ns.
package jpm

import (
	"fmt"
	"math"

	"qisim/internal/phys"
	"qisim/internal/pulse"
)

// ResonatorDriveModel converts the qubit state into a resonator coherent
// state by driving with a periodic SFQ pulse train. The drive time is the
// ring-up time to the error-saturating pointer amplitude:
//
//	t(r) = -(2/κ)·ln(1 - TargetFrac/r)
//
// where r is the energy-rate multiplier relative to the 24 GHz baseline
// train. Opt-#8 boosts the clock to 48 GHz, doubling the pulse density
// within each half resonator period (r = 2) and cutting the drive time from
// 578.2 ns to 230.9 ns.
type ResonatorDriveModel struct {
	// KappaHz is the JPM readout resonator linewidth. The JPM path uses a
	// higher-Q resonator than the dispersive CMOS path.
	KappaHz float64
	// TargetFrac is the target pointer amplitude as a fraction of the
	// baseline-rate steady state (the error-saturating point).
	TargetFrac float64
	// ResonatorFreqHz and baseline/boost clock frequencies for the pulse
	// train construction.
	ResonatorFreqHz float64
	Clocks          phys.ClockFreqs
}

// DefaultResonatorDriveModel is calibrated to the Table 2 anchor (578.2 ns at
// 24 GHz) and the Opt-#8 anchor (230.9 ns at 48 GHz).
func DefaultResonatorDriveModel() ResonatorDriveModel {
	return ResonatorDriveModel{
		KappaHz:         477.5e3,
		TargetFrac:      0.58,
		ResonatorFreqHz: 6.8e9,
		Clocks:          phys.DefaultClocks(),
	}
}

// DriveTime returns the ring-up time for an energy-rate multiplier r ≥
// TargetFrac (the steady state must exceed the target).
func (m ResonatorDriveModel) DriveTime(rate float64) float64 {
	if rate <= m.TargetFrac {
		return math.Inf(1)
	}
	kappa := 2 * math.Pi * m.KappaHz
	return -(2 / kappa) * math.Log(1-m.TargetFrac/rate)
}

// BaselineDriveTime returns the 24 GHz drive time (Table 2: 578.2 ns).
func (m ResonatorDriveModel) BaselineDriveTime() float64 { return m.DriveTime(1) }

// FastDriveTime returns the Opt-#8 48 GHz drive time (230.9 ns).
func (m ResonatorDriveModel) FastDriveTime() float64 { return m.DriveTime(2) }

// RateBoost computes the achievable energy-rate multiplier of a boosted
// clock from first principles: it builds the baseline and boosted pulse
// trains and compares their coherent drive energies per unit time at the
// resonator frequency.
func (m ResonatorDriveModel) RateBoost() float64 {
	n := 4096
	slow := pulse.AlignedTrain(n, m.ResonatorFreqHz, m.Clocks.SFQHz, 1)
	fast := pulse.AlignedTrain(2*n, m.ResonatorFreqHz, m.Clocks.SFQBoostHz, 2)
	eSlow := slow.DriveEnergyAt(m.ResonatorFreqHz, m.Clocks.SFQHz) / (float64(n) / m.Clocks.SFQHz)
	eFast := fast.DriveEnergyAt(m.ResonatorFreqHz, m.Clocks.SFQBoostHz) / (float64(2*n) / m.Clocks.SFQBoostHz)
	return eFast / eSlow
}

// LJJModel is the behavioural model of the mK JPM-readout circuit: two
// inductance-biased long-Josephson-junction transmission lines whose delay
// difference discriminates the JPM state.
type LJJModel struct {
	// InductancePH is the per-cell bias inductance (40 pH baseline; Opt-#3
	// re-design uses the 4 pH scale common to the MITLL and AIST libraries).
	InductancePH float64
	// JPMsPerLine is the number of JPMs sharing one LJJ line (1 or 8).
	JPMsPerLine int
	// BaseDelay is the single-JPM 40 pH propagation delay (Table 2: 4 ns).
	BaseDelay float64
	// MuxOverhead is the per-extra-JPM merge overhead.
	MuxOverhead float64
	// NoiseMarginSigmas is the thermal-noise margin of the discriminating
	// DFF under the AIST process; failures go as the Gaussian tail.
	NoiseMarginSigmas float64
}

// DefaultLJJ returns the unshared baseline (4 ns, 40 pH, margin such that no
// failure is observed — consistent with both the paper's JoSIM runs and the
// referenced experiments).
func DefaultLJJ() LJJModel {
	return LJJModel{
		InductancePH:      40,
		JPMsPerLine:       1,
		BaseDelay:         4e-9,
		MuxOverhead:       0.411e-9,
		NoiseMarginSigmas: 8,
	}
}

// SharedLJJ returns the Opt-#3 8-way shared re-design: 4 pH inductance keeps
// the longer line's delay at ~13 ns.
func SharedLJJ() LJJModel {
	l := DefaultLJJ()
	l.InductancePH = 4
	l.JPMsPerLine = 8
	return l
}

// Delay returns the readout propagation delay: the pulse transit time scales
// with line length (one segment per JPM) and with √L of the cells.
func (l LJJModel) Delay() float64 {
	scale := math.Sqrt(l.InductancePH / 40.0)
	return float64(l.JPMsPerLine)*l.BaseDelay*scale + float64(l.JPMsPerLine-1)*l.MuxOverhead
}

// FailureRate returns the thermal-noise-induced misread probability, the
// Gaussian tail of the timing margin. For the design points used in the
// paper this is numerically zero (< 1e-15), matching the observation that
// neither the model nor prior studies saw any LJJ readout error.
func (l LJJModel) FailureRate() float64 {
	return 0.5 * math.Erfc(l.NoiseMarginSigmas/math.Sqrt2)
}

// ShareMode selects the JPM readout organisation.
type ShareMode int

const (
	// Unshared gives every JPM its own readout circuit (baseline and the
	// Opt-#8 ERSFQ end state).
	Unshared ShareMode = iota
	// NaiveShared serialises the full 4-stage readout across the group.
	NaiveShared
	// Pipelined overlaps stages so that no JPM-readout stage coincides with
	// a JPM-writing stage (tunnelling/reset) on the shared line (Opt-#3).
	Pipelined
)

func (m ShareMode) String() string {
	switch m {
	case Unshared:
		return "unshared"
	case NaiveShared:
		return "naive-shared"
	case Pipelined:
		return "shared+pipelined"
	default:
		return fmt.Sprintf("ShareMode(%d)", int(m))
	}
}

// StageEvent is one scheduled stage occurrence, for timeline inspection
// (Fig. 15(b)).
type StageEvent struct {
	Qubit int
	Stage string
	Start float64
	End   float64
}

// Pipeline is the Opt-#3 JPM readout scheduler.
type Pipeline struct {
	Mode      ShareMode
	GroupSize int
	Spec      phys.SFQReadoutSpec
	LJJ       LJJModel
	// FastDriving applies the Opt-#8 drive time in place of Spec's.
	FastDriving bool
	Drive       ResonatorDriveModel
}

// NewPipeline builds a scheduler for the given mode; group size defaults to 8
// for shared modes and 1 otherwise.
func NewPipeline(mode ShareMode) Pipeline {
	_, spec := phys.SFQOperationSpecs()
	p := Pipeline{Mode: mode, GroupSize: 1, Spec: spec, LJJ: DefaultLJJ(), Drive: DefaultResonatorDriveModel()}
	if mode != Unshared {
		p.GroupSize = 8
		p.LJJ = SharedLJJ()
	}
	return p
}

// driveTime returns the resonator-driving latency in effect.
func (p Pipeline) driveTime() float64 {
	if p.FastDriving {
		return p.Drive.FastDriveTime()
	}
	return p.Spec.ResonatorDriving.Latency
}

// Timeline returns the scheduled stage events for the whole group.
func (p Pipeline) Timeline() []StageEvent {
	drive := p.driveTime()
	tun := p.Spec.JPMTunneling.Latency
	read := p.LJJ.Delay()
	reset := p.Spec.Reset.Latency
	var ev []StageEvent
	add := func(q int, stage string, start, dur float64) float64 {
		ev = append(ev, StageEvent{Qubit: q, Stage: stage, Start: start, End: start + dur})
		return start + dur
	}
	switch p.Mode {
	case Unshared:
		for q := 0; q < p.GroupSize; q++ {
			t := add(q, "drive", 0, drive)
			t = add(q, "tunnel", t, tun)
			t = add(q, "read", t, read)
			add(q, "reset", t, reset)
		}
	case NaiveShared:
		t := 0.0
		for q := 0; q < p.GroupSize; q++ {
			t = add(q, "drive", t, drive)
			t = add(q, "tunnel", t, tun)
			t = add(q, "read", t, read)
			t = add(q, "reset", t, reset)
		}
	case Pipelined:
		// All resonators drive in parallel; the first JPM tunnels; then the
		// shared LJJ reads one JPM per slot while the previous JPM resets
		// (reset is a writing stage, so it may not overlap a read — hence
		// the slot length is read+reset; the next tunnelling hides inside
		// the previous reset window).
		for q := 0; q < p.GroupSize; q++ {
			add(q, "drive", 0, drive)
		}
		t := add(0, "tunnel", drive, tun)
		for q := 0; q < p.GroupSize; q++ {
			slot := t + float64(q)*(read+reset)
			end := add(q, "read", slot, read)
			add(q, "reset", end, reset)
			if q+1 < p.GroupSize {
				// next JPM tunnels during this reset window (write‖write ok)
				add(q+1, "tunnel", end, tun)
			}
		}
	}
	return ev
}

// TotalLatency returns the end-to-end readout latency for the group.
func (p Pipeline) TotalLatency() float64 {
	var max float64
	for _, e := range p.Timeline() {
		if e.End > max {
			max = e.End
		}
	}
	return max
}

// Validate checks the Opt-#3 scheduling invariant: on shared lines, no read
// overlaps any write (tunnel/reset) of another JPM in the group.
func (p Pipeline) Validate() error {
	if p.Mode == Unshared {
		return nil
	}
	ev := p.Timeline()
	for _, a := range ev {
		if a.Stage != "read" {
			continue
		}
		for _, b := range ev {
			if b.Qubit == a.Qubit || (b.Stage != "tunnel" && b.Stage != "reset") {
				continue
			}
			if a.Start < b.End-1e-15 && b.Start < a.End-1e-15 {
				return fmt.Errorf("jpm: read of q%d [%0.1f,%0.1f]ns overlaps %s of q%d [%0.1f,%0.1f]ns",
					a.Qubit, a.Start*1e9, a.End*1e9, b.Stage, b.Qubit, b.Start*1e9, b.End*1e9)
			}
		}
	}
	return nil
}

// ReadoutError returns the per-qubit SFQ readout error for this pipeline:
// the driving/tunnelling error, the LJJ failure tail, and the reset error
// combine independently. Sharing does not change the per-qubit error — it
// changes the latency (and hence decoherence, accounted elsewhere).
func (p Pipeline) ReadoutError() float64 {
	ok := (1 - p.Spec.ResonatorDriving.Error) *
		(1 - p.Spec.JPMTunneling.Error) *
		(1 - p.LJJ.FailureRate()) *
		(1 - p.Spec.Reset.Error)
	return 1 - ok
}
