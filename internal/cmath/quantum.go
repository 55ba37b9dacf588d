package cmath

import (
	"math"
	"math/cmplx"
)

// Standard single-qubit operators in the computational basis.
func PauliX() *Matrix {
	return FromRows([][]complex128{{0, 1}, {1, 0}})
}

func PauliZ() *Matrix {
	return FromRows([][]complex128{{1, 0}, {0, -1}})
}

// Rx returns the rotation exp(-i θ X / 2).
func Rx(theta float64) *Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return FromRows([][]complex128{{c, s}, {s, c}})
}

// Ry returns the rotation exp(-i θ Y / 2).
func Ry(theta float64) *Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return FromRows([][]complex128{{c, -s}, {s, c}})
}

// Rz returns the rotation exp(-i θ Z / 2).
func Rz(theta float64) *Matrix {
	return FromRows([][]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	})
}

// CZ returns the two-qubit controlled-Z gate.
func CZ() *Matrix {
	m := Identity(4)
	m.Set(3, 3, -1)
	return m
}

// Destroy returns the truncated annihilation operator on n levels.
func Destroy(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n-1; i++ {
		m.Set(i, i+1, complex(math.Sqrt(float64(i+1)), 0))
	}
	return m
}

// Create returns the truncated creation operator on n levels.
func Create(n int) *Matrix { return Dagger(Destroy(n)) }

// QubitSubspace extracts the 2x2 computational-basis block of an n-level
// operator. For two coupled d-level systems use QubitSubspace2.
func QubitSubspace(u *Matrix) *Matrix {
	m := NewMatrix(2, 2)
	m.Set(0, 0, u.At(0, 0))
	m.Set(0, 1, u.At(0, 1))
	m.Set(1, 0, u.At(1, 0))
	m.Set(1, 1, u.At(1, 1))
	return m
}

// QubitSubspace2 extracts the 4x4 two-qubit computational block from an
// operator on two d-level transmons ordered as |q1 q2> with q-index = i*d+j.
func QubitSubspace2(u *Matrix, d int) *Matrix {
	idx := []int{0, 1, d, d + 1} // |00>, |01>, |10>, |11>
	m := NewMatrix(4, 4)
	for a, ia := range idx {
		for b, ib := range idx {
			m.Set(a, b, u.At(ia, ib))
		}
	}
	return m
}

// AverageGateFidelity returns the average gate fidelity between the ideal and
// actual unitaries on a Hilbert space of dimension d:
//
//	F_avg = (|Tr(U†V)|² + d) / (d(d+1))
//
// When the actual operator is sub-unitary (leakage out of the computational
// subspace), the same formula penalises the lost norm, which is exactly the
// behaviour the gate-error models need.
func AverageGateFidelity(ideal, actual *Matrix) float64 {
	if ideal.Rows != actual.Rows || ideal.Cols != actual.Cols || !ideal.IsSquare() {
		panic("cmath: AverageGateFidelity shape mismatch")
	}
	d := float64(ideal.Rows)
	tr := Trace(Mul(Dagger(ideal), actual))
	return (cmplx.Abs(tr)*cmplx.Abs(tr) + d) / (d * (d + 1))
}

// GateError returns 1 - AverageGateFidelity, clamped to [0, 1].
func GateError(ideal, actual *Matrix) float64 {
	e := 1 - AverageGateFidelity(ideal, actual)
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}

// GlobalPhaseAlign returns actual scaled by a global phase that maximises
// overlap with ideal; useful when comparing unitaries defined up to phase.
func GlobalPhaseAlign(ideal, actual *Matrix) *Matrix {
	tr := Trace(Mul(Dagger(actual), ideal))
	if cmplx.Abs(tr) == 0 {
		return actual.Clone()
	}
	phase := tr / complex(cmplx.Abs(tr), 0)
	return Scale(phase, actual)
}

// VecNorm returns the Euclidean norm of a state vector.
func VecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// NormalizeVec scales v to unit norm in place and returns it.
func NormalizeVec(v []complex128) []complex128 {
	n := VecNorm(v)
	if n == 0 {
		return v
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// BasisVec returns the n-dimensional basis vector |k>.
func BasisVec(n, k int) []complex128 {
	v := make([]complex128, n)
	v[k] = 1
	return v
}

// Overlap returns <a|b>.
func Overlap(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("cmath: Overlap length mismatch")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}
