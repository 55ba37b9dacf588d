package qcp

import (
	"fmt"
	"testing"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/isa"
	"qisim/internal/lattice"
)

// StreamStats summarises the encoded 300 K→4 K instruction stream of an
// executed program: the actual bits the QCP ships to the QCI, per class.
type StreamStats struct {
	DriveWords, PulseWords, ReadoutWords int
	DriveBits, PulseBits, ReadoutBits    int
	TotalBits                            int
	// MeasuredBandwidthBps is TotalBits over the schedule's makespan.
	MeasuredBandwidthBps float64
}

// EncodeStream walks a cycle-accurate schedule and encodes every physical
// operation into its instruction word using the extended-drive, mask-pulse
// and grouped-readout formats — the bit-level counterpart of the analytic
// bandwidth model in internal/isa. Pulse and readout instructions are
// issued per group per start time (the mask covers the group).
func EncodeStream(res *cyclesim.Result, driveGroup, readoutGroup int) (StreamStats, error) {
	var st StreamStats
	pulse := isa.PulseISA(driveGroup)
	ro := isa.ReadoutISA(readoutGroup)

	// Pulse/readout issues deduplicate by (group, start).
	type key struct {
		group int
		start float64
	}
	pulseSeen := map[key]bool{}
	roSeen := map[key]bool{}

	for _, op := range res.Ops {
		switch op.Kind {
		case compile.OneQ:
			// A virtual Rz still ships a drive word (rz-mode set); its angle
			// reuses the gate-address field, so the width is the same.
			w, err := isa.EncodeDrive(isa.DriveInstr{
				// Cycle timestamp modulo the 24-bit field (the QCP re-bases
				// the epoch every wrap, as real controllers do).
				StartTime: uint64(op.Start*2.5e9) & ((1 << 24) - 1),
				Target:    op.Qubit % 32,
				GateAddr:  0,
				RzMode:    op.Virtual,
			})
			if err != nil {
				return st, fmt.Errorf("qcp: drive encode: %w", err)
			}
			st.DriveWords++
			st.DriveBits += w.Width
		case compile.TwoQ:
			if op.Qubit > op.Partner {
				continue // count each CZ once
			}
			k := key{op.Qubit / driveGroup, op.Start}
			if pulseSeen[k] {
				continue
			}
			pulseSeen[k] = true
			st.PulseWords++
			st.PulseBits += pulse.Bits()
		case compile.Measure:
			k := key{op.Qubit / readoutGroup, op.Start}
			if roSeen[k] {
				continue
			}
			roSeen[k] = true
			st.ReadoutWords++
			st.ReadoutBits += ro.Bits()
		}
	}
	st.TotalBits = st.DriveBits + st.PulseBits + st.ReadoutBits
	if res.TotalTime > 0 {
		st.MeasuredBandwidthBps = float64(st.TotalBits) / res.TotalTime
	}
	return st, nil
}

// BandwidthPerQubit normalises the measured bandwidth by qubit count.
func (s StreamStats) BandwidthPerQubit(nQubits int) float64 {
	if nQubits == 0 {
		return 0
	}
	return s.MeasuredBandwidthBps / float64(nQubits)
}

func esmRun(t *testing.T, d int) (*cyclesim.Result, int) {
	t.Helper()
	l := lattice.NewLayout(1, d)
	tr := NewTranslator(l)
	rr, err := tr.Run(lattice.MemoryProgram(l, 2), cyclesim.CMOSConfig(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rr.Physical, tr.TotalQubits()
}

func TestEncodeStreamCounts(t *testing.T) {
	res, _ := esmRun(t, 5)
	st, err := EncodeStream(res, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.DriveWords == 0 || st.PulseWords == 0 || st.ReadoutWords == 0 {
		t.Fatalf("every stream class must carry words: %+v", st)
	}
	if st.TotalBits != st.DriveBits+st.PulseBits+st.ReadoutBits {
		t.Fatal("bit accounting broken")
	}
	// Drive words carry the 43-bit extended format.
	if st.DriveBits != st.DriveWords*isa.ExtendedDrive().Bits() {
		t.Fatal("drive width accounting broken")
	}
}

func TestMeasuredBandwidthTracksAnalyticModel(t *testing.T) {
	// The bit-level encoded stream and the analytic isa bandwidth model
	// must agree within a small factor (the analytic model normalises per
	// ESM round; the measured stream includes the real schedule).
	res, nq := esmRun(t, 7)
	st, err := EncodeStream(res, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	measured := st.BandwidthPerQubit(nq)
	round := res.TotalTime / 2 // two ESM rounds
	analytic := isa.BaselineCMOSBandwidth(round)
	ratio := measured / analytic
	if ratio < 0.1 || ratio > 3 {
		t.Fatalf("measured %.3g b/s/qubit vs analytic %.3g diverge (%.2fx)", measured, analytic, ratio)
	}
}

func TestEncodeStreamDedupesGroupIssues(t *testing.T) {
	// Two qubits of the same readout group measured at the same start must
	// share one readout word.
	res, _ := esmRun(t, 3)
	st, _ := EncodeStream(res, 32, 8)
	measures := 0
	for _, op := range res.Ops {
		if op.Kind == compile.Measure {
			measures++
		}
	}
	if st.ReadoutWords >= measures {
		t.Fatalf("grouped readout should dedupe: %d words for %d measures", st.ReadoutWords, measures)
	}
}
