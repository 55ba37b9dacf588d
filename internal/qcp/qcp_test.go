package qcp

import (
	"fmt"
	"testing"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/lattice"
	"qisim/internal/microarch"
	"qisim/internal/qasm"
)

// ValidateAgainstModel compares the measured per-round time with the
// analytic RoundTiming model for a design — the cross-check between the
// cycle-accurate simulator and the calibrated analytic timing the
// scalability analysis uses.
func ValidateAgainstModel(measured, modeled float64) error {
	if measured <= 0 || modeled <= 0 {
		return fmt.Errorf("qcp: non-positive round times %v / %v", measured, modeled)
	}
	ratio := measured / modeled
	if ratio < 0.3 || ratio > 3 {
		return fmt.Errorf("qcp: measured round time %.0f ns and model %.0f ns diverge beyond 3x",
			measured*1e9, modeled*1e9)
	}
	return nil
}

func TestTranslateMemoryProgram(t *testing.T) {
	l := lattice.NewLayout(2, 3)
	tr := NewTranslator(l)
	pr := lattice.MemoryProgram(l, 2)
	prog, err := tr.Translate(pr)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NQubits != tr.TotalQubits() {
		t.Fatalf("physical qubits %d, want %d", prog.NQubits, tr.TotalQubits())
	}
	// Every round measures all ancillas of the involved patch.
	na := tr.PatchQubits() - l.D*l.D
	_, rounds, _ := pr.ScheduleAll()
	want := rounds * na
	if prog.NClbits != want {
		t.Fatalf("measurements %d, want %d", prog.NClbits, want)
	}
	// Emitted QASM must re-parse.
	if _, err := qasm.Parse(qasm.Emit(prog)); err != nil {
		t.Fatalf("translated program does not round-trip: %v", err)
	}
}

func TestRunLogicalCNOTOnQCI(t *testing.T) {
	l := lattice.NewLayout(3, 3)
	tr := NewTranslator(l)
	pr := lattice.CNOTProgram(l, 0, 1, 2)
	rr, err := tr.Run(pr, cyclesim.CMOSConfig(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Physical.TotalTime <= 0 {
		t.Fatal("zero execution time")
	}
	if rr.Rounds != 2*3+3 {
		t.Fatalf("CNOT rounds %d, want 9 at d=3", rr.Rounds)
	}
	// A round on this QCI takes between 0.5 and 3 µs.
	if rr.RoundTime < 500e-9 || rr.RoundTime > 3e-6 {
		t.Fatalf("measured round time %.0f ns implausible", rr.RoundTime*1e9)
	}
}

func TestMeasuredRoundTimeMatchesAnalyticModel(t *testing.T) {
	// The calibrated analytic RoundTiming (used by the scalability
	// analysis) and the cycle-accurate measurement must agree within the
	// cross-check band.
	l := lattice.NewLayout(1, 5)
	tr := NewTranslator(l)
	pr := lattice.MemoryProgram(l, 4)
	rr, err := tr.Run(pr, cyclesim.CMOSConfig(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := microarch.CMOS4KBaseline().RoundTiming().RoundTime()
	if err := ValidateAgainstModel(rr.RoundTime, model); err != nil {
		t.Fatal(err)
	}
}

func TestSFQRunFasterSingleQLayer(t *testing.T) {
	// On the SFQ QCI, the broadcast drive keeps rounds shorter than the
	// FDM-serialised CMOS drive for the same program.
	l := lattice.NewLayout(1, 5)
	tr := NewTranslator(l)
	pr := lattice.MemoryProgram(l, 3)
	cm, err := tr.Run(pr, cyclesim.CMOSConfig(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sf, err := tr.Run(pr, cyclesim.SFQConfig(1), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sf.RoundTime >= cm.RoundTime {
		t.Fatalf("SFQ round %.0f ns should beat CMOS %.0f ns", sf.RoundTime*1e9, cm.RoundTime*1e9)
	}
}

func TestValidateAgainstModelRejectsDivergence(t *testing.T) {
	if err := ValidateAgainstModel(1e-6, 1e-7); err == nil {
		t.Fatal("10x divergence must be rejected")
	}
	if err := ValidateAgainstModel(1e-6, 1.2e-6); err != nil {
		t.Fatal(err)
	}
}
