package lattice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qisim/internal/microarch"
	"qisim/internal/simerr"
	"qisim/internal/surface"
)

func TestLayoutGrid(t *testing.T) {
	l := NewLayout(5, 23)
	if l.LogicalQubits() < 5 {
		t.Fatalf("layout holds %d logical qubits, need >= 5", l.LogicalQubits())
	}
	if l.PhysicalQubits() != l.LogicalQubits()*surface.PhysicalQubitsPerPatch(23) {
		t.Fatal("physical budget must be 2(d+1)^2 per patch")
	}
	// 54 logical qubits at d=23 → the paper's 62,208-qubit long-term goal.
	l54 := Layout{D: 23, Rows: 6, Cols: 9}
	if l54.PhysicalQubits() != 62208 {
		t.Fatalf("54 patches at d=23 = %d physical qubits, want 62,208", l54.PhysicalQubits())
	}
}

func TestNewLayoutCheckedRejectsNoQubits(t *testing.T) {
	if _, err := NewLayoutChecked(0, 7); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("NewLayoutChecked(0, 7): got %v, want ErrInvalidConfig", err)
	}
}

func TestRoutingDistance(t *testing.T) {
	l := Layout{D: 3, Rows: 3, Cols: 3}
	if d := l.RoutingDistance(0, 8); d != 4 {
		t.Fatalf("corner-to-corner distance %d, want 4", d)
	}
	if d := l.RoutingDistance(4, 4); d != 0 {
		t.Fatal("self distance must be 0")
	}
	if l.RoutingDistance(0, 5) != l.RoutingDistance(5, 0) {
		t.Fatal("routing distance must be symmetric")
	}
}

func TestPPMValidation(t *testing.T) {
	l := NewLayout(4, 3)
	good := PPM{Ops: []PauliOp{{0, 'X'}, {1, 'Z'}}}
	if err := good.Validate(l); err != nil {
		t.Fatal(err)
	}
	bad := []PPM{
		{},
		{Ops: []PauliOp{{99, 'X'}}},
		{Ops: []PauliOp{{0, 'X'}, {0, 'Z'}}},
		{Ops: []PauliOp{{0, 'Q'}}},
	}
	for i, p := range bad {
		if err := p.Validate(l); err == nil {
			t.Fatalf("bad PPM %d accepted", i)
		}
	}
}

func TestScheduleSingleQubitMeasurement(t *testing.T) {
	l := NewLayout(2, 5)
	op, err := Schedule(PPM{Ops: []PauliOp{{0, 'Z'}}}, l)
	if err != nil {
		t.Fatal(err)
	}
	if op.TotalRounds() != 1 {
		t.Fatalf("transversal measurement takes 1 round, got %d", op.TotalRounds())
	}
}

func TestScheduleTwoQubitPPM(t *testing.T) {
	l := NewLayout(4, 5)
	op, err := Schedule(PPM{Ops: []PauliOp{{0, 'Z'}, {1, 'Z'}}}, l)
	if err != nil {
		t.Fatal(err)
	}
	// Merge runs d rounds (fault tolerance demands it), plus the split.
	if op.TotalRounds() != 5+1 {
		t.Fatalf("ZZ surgery rounds %d, want d+1 = 6", op.TotalRounds())
	}
	// Y factors cost an extra twist phase.
	opY, _ := Schedule(PPM{Ops: []PauliOp{{0, 'Y'}, {1, 'Z'}}}, l)
	if opY.TotalRounds() <= op.TotalRounds() {
		t.Fatal("Y-basis PPM must cost more rounds than ZZ")
	}
}

func TestScheduleRoutingArea(t *testing.T) {
	l := Layout{D: 3, Rows: 3, Cols: 3}
	near, _ := Schedule(PPM{Ops: []PauliOp{{0, 'Z'}, {1, 'Z'}}}, l)
	far, _ := Schedule(PPM{Ops: []PauliOp{{0, 'Z'}, {8, 'Z'}}}, l)
	if far.Phases[0].ExtraPatchArea <= near.Phases[0].ExtraPatchArea {
		t.Fatal("distant patches need more routing area")
	}
}

func TestCNOTProgram(t *testing.T) {
	l := NewLayout(3, 5)
	pr := CNOTProgram(l, 0, 1, 2)
	ops, total, err := pr.ScheduleAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("CNOT lowers to 3 PPMs, got %d", len(ops))
	}
	// ZZ (d+1) + XX (d+1) + Z measure (1) = 2d+3.
	if total != 2*5+3 {
		t.Fatalf("CNOT rounds %d, want 13 at d=5", total)
	}
}

func TestMemoryProgramStats(t *testing.T) {
	l := NewLayout(4, 3)
	pr := MemoryProgram(l, 10)
	st, err := pr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRounds != 10*l.LogicalQubits() {
		t.Fatalf("memory rounds %d", st.TotalRounds)
	}
	if st.PeakPatches != 1 {
		t.Fatal("memory peaks at one patch per op")
	}
}

func TestExecuteOnDesign(t *testing.T) {
	l := NewLayout(2, 23)
	pr := CNOTProgram(NewLayout(3, 23), 0, 1, 2)
	_ = l
	ex, err := Execute(pr, microarch.CMOS4KOpt12())
	if err != nil {
		t.Fatal(err)
	}
	if ex.WallClock <= 0 || ex.Success <= 0 || ex.Success > 1 {
		t.Fatalf("implausible execution: %+v", ex)
	}
	// At d=23 the logical CNOT succeeds essentially surely.
	if ex.Success < 0.999999 {
		t.Fatalf("d=23 CNOT success %v, want ~1", ex.Success)
	}
	// Wall clock = rounds × round time.
	want := float64(ex.Stats.TotalRounds) * ex.RoundTime
	if math.Abs(ex.WallClock-want) > 1e-12 {
		t.Fatal("wall clock accounting broken")
	}
}

func TestExecuteDistanceMatters(t *testing.T) {
	prLow := CNOTProgram(NewLayout(3, 3), 0, 1, 2)
	prHigh := CNOTProgram(NewLayout(3, 11), 0, 1, 2)
	exLow, _ := Execute(prLow, microarch.RSFQOpt345())
	exHigh, _ := Execute(prHigh, microarch.RSFQOpt345())
	if exHigh.LogicalErr >= exLow.LogicalErr {
		t.Fatal("higher distance must give lower logical error")
	}
	if exHigh.Success <= exLow.Success {
		t.Fatal("higher distance must give higher success")
	}
}

func TestRequiredDistance(t *testing.T) {
	pr := MemoryProgram(NewLayout(2, 3), 1000)
	d := RequiredDistance(pr, microarch.CMOS4KOpt12(), 0.99)
	if d < 3 || d > 25 || d%2 == 0 {
		t.Fatalf("required distance %d implausible", d)
	}
	// A harsher design (naive sharing) needs more distance.
	dBad := RequiredDistance(pr, microarch.RSFQNaiveSharing(), 0.99)
	if dBad <= d {
		t.Fatalf("naive sharing should need more distance: %d vs %d", dBad, d)
	}
}

func TestPPMString(t *testing.T) {
	p := PPM{Ops: []PauliOp{{0, 'X'}, {3, 'Z'}}}
	if s := p.String(); !strings.Contains(s, "X0") || !strings.Contains(s, "Z3") {
		t.Fatalf("PPM rendering %q", s)
	}
}
