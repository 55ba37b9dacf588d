package surface

import "testing"

func TestFitProjectionFromDecoder(t *testing.T) {
	r, err := FitProjection([]int{3, 5}, []float64{0.01, 0.02, 0.03, 0.05}, 120000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 6 {
		t.Fatalf("fit used only %d points", len(r.Points))
	}
	// The prefactor lands near the canonical ~0.1.
	if r.A < 0.02 || r.A > 0.5 {
		t.Fatalf("fitted A = %v, want ~0.1", r.A)
	}
	// The code-capacity threshold sits near 7-10% — roughly 12x the paper's
	// circuit-level 0.57%, the standard code-capacity/circuit-level gap
	// (one fault location per qubit per round vs. tens per ESM round).
	if r.PTh < 0.03 || r.PTh > 0.15 {
		t.Fatalf("fitted p_th = %v, want ~0.07 (code capacity)", r.PTh)
	}
	if !r.PredictsWithin(3) {
		t.Fatal("fit must reproduce its own MC points within 3x")
	}
}

func TestFitHandlesDegenerateInput(t *testing.T) {
	// Too-low p produces no failures → no usable points → zero fit, and
	// PredictsWithin must reject it rather than divide by zero.
	r, err := FitProjection([]int{3}, []float64{1e-5}, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.A != 0 || r.PTh != 0 {
		t.Fatalf("degenerate fit should return zeros, got %+v", r)
	}
	if r.PredictsWithin(3) {
		t.Fatal("zero fit must not claim predictive power")
	}
	// An invalid distance is an error, not a panic.
	if _, err := FitProjection([]int{4}, []float64{0.01}, 200, 2); err == nil {
		t.Fatal("even distance must be rejected")
	}
}
