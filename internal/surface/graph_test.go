package surface

import "testing"

// TestGraphTables checks the decoding graph's tables against the patch
// geometry for every odd d from 3 to 21. The node-to-node length is the
// Chebyshev distance of the two checks on the ancilla grid, and the
// boundary length is the number of ancilla rows to the nearer X boundary
// (top or bottom). No node-to-node path crosses data row 0, so every
// node-to-node parity is even; a boundary path flips the logical qubit
// exactly when it ends on the top boundary, through data row 0.
func TestGraphTables(t *testing.T) {
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for d := 3; d <= 21; d += 2 {
		p := NewPatch(d)
		g := newGraph(p)
		zs := p.AncillasOfType(ZAncilla)
		nz := len(zs)
		if len(g.b) != nz || len(g.w) != nz*nz {
			t.Fatalf("d=%d: tables sized for %d nodes, want %d", d, len(g.b), nz)
		}
		for i, ai := range zs {
			a := p.Ancillas[ai]
			top, bot := (a.R2+1)/2, (2*d-1-a.R2)/2
			if int(g.b[i]) != min(top, bot) || g.bPar[i] != (top < bot) {
				t.Fatalf("d=%d check %d: boundary length %d parity %v, want %d, %v",
					d, i, g.b[i], g.bPar[i], min(top, bot), top < bot)
			}
			for j, aj := range zs {
				c := p.Ancillas[aj]
				want := max(abs(a.R2-c.R2)/2, abs(a.C2-c.C2)/2)
				if int(g.w[i*nz+j]) != want || g.wPar[i*nz+j] {
					t.Fatalf("d=%d checks %d,%d: length %d parity %v, want %d, false",
						d, i, j, g.w[i*nz+j], g.wPar[i*nz+j], want)
				}
			}
		}
	}
}
