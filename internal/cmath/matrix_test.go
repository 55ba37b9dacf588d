package cmath

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-10

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func cApprox(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

func matApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return Sub(a, b).FrobeniusNorm() <= tol
}

func randMatrix(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 9} {
		m := randMatrix(r, n)
		if !matApprox(Mul(Identity(n), m), m, eps) {
			t.Errorf("I*m != m for n=%d", n)
		}
		if !matApprox(Mul(m, Identity(n)), m, eps) {
			t.Errorf("m*I != m for n=%d", n)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b, c := randMatrix(r, 4), randMatrix(r, 4), randMatrix(r, 4)
	lhs := Mul(Mul(a, b), c)
	rhs := Mul(a, Mul(b, c))
	if !matApprox(lhs, rhs, 1e-9) {
		t.Fatal("(ab)c != a(bc)")
	}
}

func TestDaggerProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randMatrix(r, 3), randMatrix(r, 3)
	// (AB)† = B†A†
	if !matApprox(Dagger(Mul(a, b)), Mul(Dagger(b), Dagger(a)), 1e-9) {
		t.Fatal("(AB)† != B†A†")
	}
	// (A†)† = A
	if !matApprox(Dagger(Dagger(a)), a, eps) {
		t.Fatal("double dagger is not identity")
	}
}

func TestKronDimensionsAndTrace(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := randMatrix(r, 2), randMatrix(r, 3)
	k := Kron(a, b)
	if k.Rows != 6 || k.Cols != 6 {
		t.Fatalf("kron shape = %dx%d, want 6x6", k.Rows, k.Cols)
	}
	// Tr(A⊗B) = Tr(A)Tr(B)
	if !cApprox(Trace(k), Trace(a)*Trace(b), 1e-9) {
		t.Fatal("Tr(A⊗B) != Tr(A)Tr(B)")
	}
}

func TestKronMixedProduct(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a, b := randMatrix(r, 2), randMatrix(r, 2)
	c, d := randMatrix(r, 2), randMatrix(r, 2)
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	lhs := Mul(Kron(a, b), Kron(c, d))
	rhs := Kron(Mul(a, c), Mul(b, d))
	if !matApprox(lhs, rhs, 1e-8) {
		t.Fatal("Kron mixed-product identity failed")
	}
}

func TestExpmZeroIsIdentity(t *testing.T) {
	if !matApprox(Expm(NewMatrix(3, 3)), Identity(3), eps) {
		t.Fatal("exp(0) != I")
	}
}

func TestExpmDiagonal(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, complex(0, 1.3))
	m.Set(1, 1, complex(-0.4, 0.2))
	e := Expm(m)
	if !cApprox(e.At(0, 0), cmplx.Exp(complex(0, 1.3)), eps) {
		t.Fatal("diagonal exp mismatch at (0,0)")
	}
	if !cApprox(e.At(1, 1), cmplx.Exp(complex(-0.4, 0.2)), eps) {
		t.Fatal("diagonal exp mismatch at (1,1)")
	}
	if !cApprox(e.At(0, 1), 0, eps) {
		t.Fatal("off-diagonal should be zero")
	}
}

func TestExpmPauliRotation(t *testing.T) {
	// exp(-i θ X / 2) must match the closed-form Rx(θ).
	for _, theta := range []float64{0.1, math.Pi / 2, math.Pi, 2.7, -1.1} {
		h := Scale(complex(0, -theta/2), PauliX())
		if !matApprox(Expm(h), Rx(theta), 1e-9) {
			t.Errorf("Expm rotation mismatch for θ=%v", theta)
		}
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Large-norm Hermitian generator: exp(-iH) must stay unitary.
	r := rand.New(rand.NewSource(6))
	a := randMatrix(r, 4)
	h := Scale(0.5, Add(a, Dagger(a))) // Hermitian
	h = Scale(50, h)                   // large norm forces scaling&squaring
	u := Expm(Scale(complex(0, -1), h))
	if !IsUnitary(u, 1e-7) {
		t.Fatal("exp(-iH) not unitary for large-norm H")
	}
}

func TestExpmAdditiveCommuting(t *testing.T) {
	// exp(A+B) = exp(A)exp(B) when [A,B]=0 (use polynomials of one matrix).
	r := rand.New(rand.NewSource(7))
	a := randMatrix(r, 3)
	a = Scale(0.3, a)
	b := Mul(a, a) // commutes with a
	lhs := Expm(Add(a, b))
	rhs := Mul(Expm(a), Expm(b))
	if !matApprox(lhs, rhs, 1e-8) {
		t.Fatal("exp(A+B) != exp(A)exp(B) for commuting A,B")
	}
}

// hadamard returns the single-qubit Hadamard gate.
func hadamard() *Matrix {
	s := complex(1/math.Sqrt2, 0)
	return FromRows([][]complex128{{s, s}, {s, -s}})
}

func TestPauliAlgebra(t *testing.T) {
	x, z := PauliX(), PauliZ()
	// X² = Z² = I
	for name, p := range map[string]*Matrix{"X": x, "Z": z} {
		if !matApprox(Mul(p, p), Identity(2), eps) {
			t.Errorf("%s² != I", name)
		}
	}
	// XZ = -ZX
	if !matApprox(Mul(x, z), Scale(-1, Mul(z, x)), eps) {
		t.Fatal("XZ != -ZX")
	}
	// Hadamard: HXH = Z
	h := hadamard()
	if !matApprox(Mul(Mul(h, x), h), z, eps) {
		t.Fatal("HXH != Z")
	}
}

func TestRotationComposition(t *testing.T) {
	// Rz(a)Rz(b) = Rz(a+b)
	if !matApprox(Mul(Rz(0.7), Rz(0.5)), Rz(1.2), eps) {
		t.Fatal("Rz composition failed")
	}
	// Ry(π) maps |0> to |1> up to phase.
	v := Ry(math.Pi).ApplyTo(BasisVec(2, 0))
	if !approx(cmplx.Abs(v[1]), 1, eps) {
		t.Fatal("Ry(π)|0> != |1>")
	}
}

func TestGateErrorIdenticalIsZero(t *testing.T) {
	for _, u := range []*Matrix{Rx(0.3), Ry(1.1), Rz(2.2), hadamard(), CZ()} {
		if e := GateError(u, u); e > 1e-12 {
			t.Errorf("GateError(U,U) = %g, want 0", e)
		}
	}
}

func TestGateErrorOrthogonal(t *testing.T) {
	// X vs I on a qubit: |Tr(X†I)|² = 0 → F = 2/6 = 1/3, error = 2/3.
	e := GateError(PauliX(), Identity(2))
	if !approx(e, 2.0/3.0, eps) {
		t.Fatalf("GateError(X, I) = %v, want 2/3", e)
	}
}

func TestGateErrorPhaseInvariance(t *testing.T) {
	u := Ry(0.8)
	v := Scale(cmplx.Exp(0.31i), u)
	if e := GateError(u, v); e > 1e-12 {
		t.Fatalf("gate error should be global-phase invariant, got %g", e)
	}
}

func TestGlobalPhaseAlign(t *testing.T) {
	u := hadamard()
	v := Scale(cmplx.Exp(1.2i), u)
	aligned := GlobalPhaseAlign(u, v)
	if !matApprox(aligned, u, 1e-9) {
		t.Fatal("GlobalPhaseAlign failed to remove phase")
	}
}

func TestDestroyCreateCommutator(t *testing.T) {
	// [a, a†] = I on the non-truncated block.
	n := 6
	a, ad := Destroy(n), Create(n)
	comm := Sub(Mul(a, ad), Mul(ad, a))
	for i := 0; i < n-1; i++ {
		if !cApprox(comm.At(i, i), 1, eps) {
			t.Fatalf("[a,a†] diagonal %d = %v, want 1", i, comm.At(i, i))
		}
	}
	// Number operator a†a = diag(0, 1, ..., n-1).
	num := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		num.Set(i, i, complex(float64(i), 0))
	}
	if !matApprox(Mul(ad, a), num, eps) {
		t.Fatal("a†a != N")
	}
}

func TestEmbedAndExtractQubit(t *testing.T) {
	// Embed a qubit gate in the first two levels of a qutrit, with the
	// identity on the leakage level, and extract it again.
	u := Ry(0.9)
	e := Identity(3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e.Set(i, j, u.At(i, j))
		}
	}
	if !matApprox(QubitSubspace(e), u, eps) {
		t.Fatal("embed/extract roundtrip failed")
	}
}

func TestQubitSubspace2(t *testing.T) {
	// Build CZ on two 3-level systems and extract the 4x4 block.
	d := 3
	u := Identity(d * d)
	u.Set(1*d+1, 1*d+1, -1) // |11> phase flip
	got := QubitSubspace2(u, d)
	if !matApprox(got, CZ(), eps) {
		t.Fatal("QubitSubspace2 failed to extract CZ")
	}
}

func TestVectorHelpers(t *testing.T) {
	v := []complex128{3, 4i}
	if !approx(VecNorm(v), 5, eps) {
		t.Fatal("VecNorm failed")
	}
	NormalizeVec(v)
	if !approx(VecNorm(v), 1, eps) {
		t.Fatal("NormalizeVec failed")
	}
	if !cApprox(Overlap(BasisVec(4, 2), BasisVec(4, 2)), 1, eps) {
		t.Fatal("Overlap of identical basis vectors should be 1")
	}
	if !cApprox(Overlap(BasisVec(4, 1), BasisVec(4, 2)), 0, eps) {
		t.Fatal("Overlap of distinct basis vectors should be 0")
	}
}

// Property: unitarity is preserved by products of generated rotations.
func TestQuickUnitaryProducts(t *testing.T) {
	f := func(a, b, c float64) bool {
		u := Mul(Mul(Rx(math.Mod(a, 10)), Ry(math.Mod(b, 10))), Rz(math.Mod(c, 10)))
		return IsUnitary(u, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GateError is symmetric and within [0,1] for random rotations.
func TestQuickGateErrorBounds(t *testing.T) {
	f := func(a, b float64) bool {
		u, v := Ry(math.Mod(a, 10)), Ry(math.Mod(b, 10))
		e1, e2 := GateError(u, v), GateError(v, u)
		return e1 >= 0 && e1 <= 1 && math.Abs(e1-e2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Expm of anti-Hermitian matrices is unitary.
func TestQuickExpmUnitary(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		a := randMatrix(r, 3)
		h := Scale(0.5, Add(a, Dagger(a)))
		u := Expm(Scale(complex(0, -1), h))
		return IsUnitary(u, 1e-8)
	}
	for i := 0; i < 50; i++ {
		if !f() {
			t.Fatal("Expm(-iH) not unitary")
		}
	}
}

func TestTraceLinear(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a, b := randMatrix(r, 4), randMatrix(r, 4)
	if !cApprox(Trace(Add(a, b)), Trace(a)+Trace(b), 1e-9) {
		t.Fatal("trace not linear")
	}
	// Cyclic: Tr(AB) = Tr(BA)
	if !cApprox(Trace(Mul(a, b)), Trace(Mul(b, a)), 1e-9) {
		t.Fatal("trace not cyclic")
	}
}

func TestCNOTAndCZRelation(t *testing.T) {
	// CNOT = (I⊗H) CZ (I⊗H), control = qubit 0.
	cnot := FromRows([][]complex128{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}})
	ih := Kron(Identity(2), hadamard())
	got := Mul(Mul(ih, CZ()), ih)
	if !matApprox(got, cnot, eps) {
		t.Fatal("CNOT != (I⊗H)CZ(I⊗H)")
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestAddInPlaceAccumulates(t *testing.T) {
	a := Identity(2)
	AddInPlace(a, 2, PauliZ())
	if !cApprox(a.At(0, 0), 3, eps) || !cApprox(a.At(1, 1), -1, eps) {
		t.Fatalf("AddInPlace wrong: %v", a)
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestAddShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(NewMatrix(2, 2), NewMatrix(3, 3))
}
