// Package surface implements QIsim's fault-tolerance substrate: the rotated
// surface-code patch (Fig. 1 of the paper), ESM circuit generation (the
// peak-power workload of the scalability analysis), a phenomenological
// Monte-Carlo decoder used to validate the logical-error projection, and the
// calibrated projection + Jellium target model that converts physical error
// rates into maximum supportable qubit counts.
package surface

import (
	"fmt"

	"qisim/internal/simerr"
)

// AncillaType distinguishes the two stabilizer families.
type AncillaType int

const (
	// ZAncilla detects X errors on its adjacent data qubits.
	ZAncilla AncillaType = iota
	// XAncilla detects Z errors.
	XAncilla
)

// Ancilla is one stabilizer qubit of the patch.
type Ancilla struct {
	Type AncillaType
	// R2, C2 are doubled coordinates (data qubit (r,c) sits at (2r, 2c);
	// ancillas sit at odd-odd positions).
	R2, C2 int
	// Data lists the adjacent data-qubit indices (2 on boundaries, 4 bulk).
	Data []int
}

// Patch is a rotated surface-code patch of odd distance d: d² data qubits
// and d²-1 ancillas.
type Patch struct {
	D        int
	Ancillas []Ancilla
}

// NewPatchChecked is the erroring boundary for NewPatch: an invalid
// distance returns a typed ErrInvalidConfig instead of panicking. Use it
// wherever the distance derives from user input.
func NewPatchChecked(d int) (*Patch, error) {
	if d < 3 || d%2 == 0 {
		return nil, simerr.Invalidf("surface: distance must be odd and >= 3, got %d", d)
	}
	return NewPatch(d), nil
}

// NewPatch builds the distance-d rotated patch. Z-type boundary ancillas sit
// on the left/right edges, X-type on top/bottom (so X-error chains terminate
// top/bottom and the Z-logical runs along row 0). It panics on an invalid
// distance (programmer error); see NewPatchChecked for the erroring
// boundary.
func NewPatch(d int) *Patch {
	if d < 3 || d%2 == 0 {
		panic(fmt.Sprintf("surface: distance must be odd and >= 3, got %d", d))
	}
	p := &Patch{D: d}
	dq := func(r, c int) int { return r*d + c }

	// Bulk ancillas at (r+0.5, c+0.5): Z when (r+c) even.
	for r := 0; r < d-1; r++ {
		for c := 0; c < d-1; c++ {
			t := XAncilla
			if (r+c)%2 == 0 {
				t = ZAncilla
			}
			p.Ancillas = append(p.Ancillas, Ancilla{
				Type: t, R2: 2*r + 1, C2: 2*c + 1,
				Data: []int{dq(r, c), dq(r, c+1), dq(r+1, c), dq(r+1, c+1)},
			})
		}
	}
	// Left boundary (c = -0.5): continue the checkerboard → Z at odd r.
	for r := 1; r < d-1; r += 2 {
		p.Ancillas = append(p.Ancillas, Ancilla{
			Type: ZAncilla, R2: 2*r + 1, C2: -1,
			Data: []int{dq(r, 0), dq(r+1, 0)},
		})
	}
	// Right boundary (c = d-0.5): Z at even r.
	for r := 0; r < d-1; r += 2 {
		p.Ancillas = append(p.Ancillas, Ancilla{
			Type: ZAncilla, R2: 2*r + 1, C2: 2*d - 1,
			Data: []int{dq(r, d-1), dq(r+1, d-1)},
		})
	}
	// Top boundary (r = -0.5): X at odd c.
	for c := 1; c < d-1; c += 2 {
		p.Ancillas = append(p.Ancillas, Ancilla{
			Type: XAncilla, R2: -1, C2: 2*c + 1,
			Data: []int{dq(0, c), dq(0, c+1)},
		})
	}
	// Bottom boundary (r = d-0.5): X at even c.
	for c := 0; c < d-1; c += 2 {
		p.Ancillas = append(p.Ancillas, Ancilla{
			Type: XAncilla, R2: 2*d - 1, C2: 2*c + 1,
			Data: []int{dq(d-1, c), dq(d-1, c+1)},
		})
	}
	return p
}

// DataQubits returns the number of data qubits (d²).
func (p *Patch) DataQubits() int { return p.D * p.D }

// TotalQubits returns data + ancilla qubits: 2(d²)-1... the paper counts the
// full patch as 2(d+1)² including routing overheads; PhysicalQubitsPerPatch
// reports that planning number.
func (p *Patch) TotalQubits() int { return p.DataQubits() + len(p.Ancillas) }

// PhysicalQubitsPerPatch is the paper's per-logical-qubit budget 2(d+1)²
// (Section 2.1.3) — 1,152 qubits at d = 23.
func PhysicalQubitsPerPatch(d int) int { return 2 * (d + 1) * (d + 1) }

// Op is one scheduled operation of the ESM circuit.
type Op struct {
	// Kind is "h", "cz" or "measure".
	Kind string
	// Q is the target qubit id; Q2 the CZ counterpart (-1 otherwise).
	Q, Q2 int
	// Layer is the time layer within the round (0-based).
	Layer int
}

// ESMCircuit generates one error-syndrome-measurement round as a layered
// operation list over the patch's qubit numbering: data qubits are
// 0..d²-1 and ancilla i is d²+i. Layers: H on ancillas; four CZ layers in
// the standard NW/NE/SW/SE order; H; measure — the workload the paper runs
// for the scalability analysis because it is the peak-power pattern.
func (p *Patch) ESMCircuit() []Op {
	d := p.D
	aid := func(i int) int { return d*d + i }
	var ops []Op
	for i := range p.Ancillas {
		ops = append(ops, Op{Kind: "h", Q: aid(i), Q2: -1, Layer: 0})
	}
	// CZ layers: order neighbours by (row, col) offset — NW, NE, SW, SE.
	for layer := 0; layer < 4; layer++ {
		for i, a := range p.Ancillas {
			for _, q := range a.Data {
				r, c := q/d, q%d
				dr, dc := 2*r-a.R2, 2*c-a.C2 // ±1 each
				idx := 0
				if dr > 0 {
					idx += 2
				}
				if dc > 0 {
					idx++
				}
				if idx == layer {
					ops = append(ops, Op{Kind: "cz", Q: aid(i), Q2: q, Layer: 1 + layer})
				}
			}
		}
	}
	for i := range p.Ancillas {
		ops = append(ops, Op{Kind: "h", Q: aid(i), Q2: -1, Layer: 5})
	}
	for i := range p.Ancillas {
		ops = append(ops, Op{Kind: "measure", Q: aid(i), Q2: -1, Layer: 6})
	}
	return ops
}
