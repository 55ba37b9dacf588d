package cmath

import (
	"math"

	"qisim/internal/simerr"
)

// This file adds the NaN/Inf sentinels of the robustness layer: cmath keeps
// hot-path panics for programmer errors (shape mismatches), but numerical
// corruption — NaN or Inf appearing in a kernel's input or output — must be
// caught where it originates and surfaced as a typed ErrNumerical instead of
// poisoning every downstream fidelity and power figure. The kernels
// themselves stay unchecked; callers run these predicates on the operands
// and results they own, which are cheap enough to call anywhere.

// IsFinite reports whether every entry of the matrix is finite (no NaN/Inf
// in either component).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.Data {
		if !finiteC(v) {
			return false
		}
	}
	return true
}

func finiteC(v complex128) bool {
	return !math.IsNaN(real(v)) && !math.IsInf(real(v), 0) &&
		!math.IsNaN(imag(v)) && !math.IsInf(imag(v), 0)
}

// CheckFiniteVec returns a typed ErrNumerical naming op when the state
// vector has a NaN/Inf amplitude, nil otherwise.
func CheckFiniteVec(op string, v []complex128) error {
	for i, x := range v {
		if !finiteC(x) {
			return simerr.Numericalf("cmath: %s: non-finite amplitude (%v) at [%d]", op, x, i)
		}
	}
	return nil
}

// CheckFiniteScalar is CheckFiniteVec for real scalars (fidelities, error
// rates, power figures).
func CheckFiniteScalar(op string, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return simerr.Numericalf("cmath: %s: non-finite value %v", op, x)
	}
	return nil
}
