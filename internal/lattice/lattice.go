// Package lattice implements the fault-tolerant logical-operation layer of
// Section 2.1.4: multi-patch surface-code layouts and lattice surgery.
// Arbitrary logical circuits reduce to sequences of multi-qubit
// Pauli-product measurements (PPMs), each executed by merging the involved
// patches through their shared routing space for d ESM rounds and splitting
// them again. This is the layer a quantum control processor (XQsim-class)
// would drive; QIsim consumes its output as ESM workload schedules — the
// peak-power pattern the scalability analysis runs.
package lattice

import (
	"fmt"
	"strings"

	"qisim/internal/simerr"
	"qisim/internal/surface"
)

// Layout is a 2D arrangement of logical-qubit patches with routing lanes,
// following the compact lattice-surgery floor plan: patches on a grid with
// one routing row between patch rows and one routing column per patch
// column.
type Layout struct {
	// D is the code distance of every patch.
	D int
	// Rows, Cols is the patch grid.
	Rows, Cols int
}

// NewLayoutChecked is the erroring boundary over NewLayout: invalid logical
// qubit counts or code distances return a typed ErrInvalidConfig instead of
// panicking.
func NewLayoutChecked(n, d int) (Layout, error) {
	if n < 1 {
		return Layout{}, simerr.Invalidf("lattice: need at least one logical qubit, got %d", n)
	}
	if d < 3 || d%2 == 0 {
		return Layout{}, simerr.Invalidf("lattice: code distance must be odd and >= 3, got %d", d)
	}
	return NewLayout(n, d), nil
}

// NewLayout builds a layout for at least n logical qubits at distance d.
// It panics on n < 1; callers handling untrusted input should use
// NewLayoutChecked.
func NewLayout(n, d int) Layout {
	if n < 1 {
		panic("lattice: need at least one logical qubit")
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	return Layout{D: d, Rows: rows, Cols: cols}
}

// LogicalQubits returns the patch count.
func (l Layout) LogicalQubits() int { return l.Rows * l.Cols }

// PhysicalQubits returns the planning-number physical budget: 2(d+1)² per
// patch (patch + its routing share), the paper's Section 6.1 accounting.
func (l Layout) PhysicalQubits() int {
	return l.LogicalQubits() * surface.PhysicalQubitsPerPatch(l.D)
}

// PatchPosition returns the grid coordinates of logical qubit q.
func (l Layout) PatchPosition(q int) (row, col int) {
	return q / l.Cols, q % l.Cols
}

// RoutingDistance returns the Manhattan routing-lane distance between two
// patches — the merge region of a two-qubit PPM spans this many lanes.
func (l Layout) RoutingDistance(a, b int) int {
	ra, ca := l.PatchPosition(a)
	rb, cb := l.PatchPosition(b)
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// PauliOp is one tensor factor of a Pauli product.
type PauliOp struct {
	Qubit int
	Basis byte // 'X', 'Y' or 'Z'
}

// PPM is a multi-qubit Pauli-product measurement — the universal logical
// instruction of lattice-surgery FTQC (Litinski's "game of surface codes").
type PPM struct {
	Ops []PauliOp
}

// Validate checks the PPM against a layout.
func (p PPM) Validate(l Layout) error {
	if len(p.Ops) == 0 {
		return fmt.Errorf("lattice: empty PPM")
	}
	seen := map[int]bool{}
	for _, op := range p.Ops {
		if op.Qubit < 0 || op.Qubit >= l.LogicalQubits() {
			return fmt.Errorf("lattice: PPM touches unknown logical qubit %d", op.Qubit)
		}
		if seen[op.Qubit] {
			return fmt.Errorf("lattice: PPM touches qubit %d twice", op.Qubit)
		}
		seen[op.Qubit] = true
		switch op.Basis {
		case 'X', 'Y', 'Z':
		default:
			return fmt.Errorf("lattice: bad Pauli basis %q", op.Basis)
		}
	}
	return nil
}

func (p PPM) String() string {
	var b strings.Builder
	for i, op := range p.Ops {
		if i > 0 {
			b.WriteRune('⊗')
		}
		fmt.Fprintf(&b, "%c%d", op.Basis, op.Qubit)
	}
	return b.String()
}

// Phase is one scheduled step of a surgery operation.
type Phase struct {
	Name string
	// Rounds of ESM this phase runs on the involved region.
	Rounds int
	// Patches involved (incl. routing ancilla region as extra area).
	Patches []int
	// ExtraPatchArea counts routing-lane area in units of patches.
	ExtraPatchArea int
}

// Operation is a scheduled lattice-surgery operation.
type Operation struct {
	PPM    PPM
	Phases []Phase
}

// TotalRounds sums the ESM rounds across phases.
func (o Operation) TotalRounds() int {
	t := 0
	for _, p := range o.Phases {
		t += p.Rounds
	}
	return t
}

// Schedule lowers a PPM into merge/measure/split phases per the standard
// lattice-surgery recipe: d rounds of merged ESM to measure the product
// fault-tolerantly, a Y-basis factor costs one extra patch interaction
// round (the twist/Y-state overhead), and single-qubit PPMs are transversal
// measurements needing a single round.
func Schedule(p PPM, l Layout) (Operation, error) {
	if err := p.Validate(l); err != nil {
		return Operation{}, err
	}
	op := Operation{PPM: p}
	var qs []int
	hasY := false
	for _, o := range p.Ops {
		qs = append(qs, o.Qubit)
		if o.Basis == 'Y' {
			hasY = true
		}
	}
	if len(qs) == 1 && !hasY {
		op.Phases = []Phase{{Name: "measure", Rounds: 1, Patches: qs}}
		return op, nil
	}
	// Routing area: lanes along the path through all involved patches
	// (greedy chain in qubit order — adequate for area accounting).
	area := 0
	for i := 1; i < len(qs); i++ {
		area += l.RoutingDistance(qs[i-1], qs[i])
	}
	if area == 0 {
		area = 1
	}
	merge := Phase{Name: "merge+measure", Rounds: l.D, Patches: qs, ExtraPatchArea: area}
	split := Phase{Name: "split", Rounds: 1, Patches: qs, ExtraPatchArea: area}
	if hasY {
		op.Phases = append(op.Phases, Phase{Name: "y-twist", Rounds: 1, Patches: qs, ExtraPatchArea: 1})
	}
	op.Phases = append(op.Phases, merge, split)
	return op, nil
}

// Program is a sequence of PPMs — the logical-level workload a QCP streams
// to the QCI.
type Program struct {
	Layout Layout
	PPMs   []PPM
}

// ScheduleAll lowers every PPM, returning the operations and total rounds.
func (pr Program) ScheduleAll() ([]Operation, int, error) {
	var ops []Operation
	total := 0
	for _, p := range pr.PPMs {
		op, err := Schedule(p, pr.Layout)
		if err != nil {
			return nil, 0, err
		}
		ops = append(ops, op)
		total += op.TotalRounds()
	}
	return ops, total, nil
}

// WorkloadStats summarises the physical demand of a logical program: what
// the QCI must sustain.
type WorkloadStats struct {
	LogicalQubits  int
	PhysicalQubits int
	TotalRounds    int
	// BusyPatchRounds counts patch·round products (activity exposure).
	BusyPatchRounds int
	// PeakPatches is the largest simultaneous patch+routing area.
	PeakPatches int
}

// Stats computes the workload statistics of a program.
func (pr Program) Stats() (WorkloadStats, error) {
	ops, total, err := pr.ScheduleAll()
	if err != nil {
		return WorkloadStats{}, err
	}
	st := WorkloadStats{
		LogicalQubits:  pr.Layout.LogicalQubits(),
		PhysicalQubits: pr.Layout.PhysicalQubits(),
		TotalRounds:    total,
	}
	for _, op := range ops {
		for _, ph := range op.Phases {
			area := len(ph.Patches) + ph.ExtraPatchArea
			st.BusyPatchRounds += area * ph.Rounds
			if area > st.PeakPatches {
				st.PeakPatches = area
			}
		}
	}
	return st, nil
}
