package cmath

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// This file pins the bit-identity contract of the optimized kernels: the
// cache-blocked MulInto, the non-materializing ApplyKron, and the
// scratch-reusing ExpmWorkspace must produce results exactly == to the
// naive reference implementations kept below. Every comparison is ==, not
// approximate: the optimizations are only allowed to change memory traffic,
// never a single floating-point operation's order per output element.

// mulRef is the textbook ijk matrix product: each output element sums its
// k-terms in ascending order into a local accumulator.
func mulRef(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// applyKronRef materializes the Kronecker product and applies it.
func applyKronRef(a, b *Matrix, v []complex128) []complex128 {
	return Kron(a, b).ApplyTo(v)
}

func randMatrixRC(rng *rand.Rand, rows, cols int, sparse bool) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if sparse && rng.Intn(3) == 0 {
			continue // leave exact zeros to exercise the skip paths
		}
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func eqMatrix(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, wv := range want.Data {
		if got.Data[i] != wv {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, got.Data[i], wv)
		}
	}
}

func eqVec(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i, wv := range want {
		if got[i] != wv {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, got[i], wv)
		}
	}
}

// mulShapes spans size-1 edges, odd sizes, non-square shapes, and sizes
// straddling the mulBlockJ tile boundary (63/64/65, 130) so every branch of
// the blocked kernel is exercised.
var mulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 1, 7},
	{7, 1, 1},
	{1, 9, 1},
	{2, 2, 2},
	{3, 5, 4},
	{8, 8, 8},
	{5, 17, 3},
	{16, 16, 16},
	{10, 4, 63},
	{9, 3, 64},
	{7, 6, 65},
	{4, 70, 130},
	{33, 33, 33},
}

func TestMulIntoMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sh := range mulShapes {
		for trial := 0; trial < 4; trial++ {
			sparse := trial%2 == 1
			a := randMatrixRC(rng, sh.m, sh.k, sparse)
			b := randMatrixRC(rng, sh.k, sh.n, sparse)
			want := mulRef(a, b)
			got := NewMatrix(sh.m, sh.n)
			// Pre-poison dst to prove MulInto fully overwrites it.
			for i := range got.Data {
				got.Data[i] = complex(1e300, -1e300)
			}
			MulInto(got, a, b)
			eqMatrix(t, "MulInto", got, want)
			eqMatrix(t, "Mul", Mul(a, b), want)
		}
	}
}

func TestMulIntoShapePanics(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto accepted mismatched inner dimensions")
		}
	}()
	MulInto(NewMatrix(2, 2), a, b)
}

func TestApplyKronMatchesMaterializedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	shapes := []struct{ ar, ac, br, bc int }{
		{1, 1, 1, 1},
		{1, 1, 4, 4},
		{3, 3, 1, 1},
		{2, 2, 2, 2},
		{2, 3, 4, 2}, // non-square both factors
		{1, 5, 3, 1}, // row vector ⊗ column vector
		{5, 1, 1, 6},
		{4, 4, 3, 3},
		{3, 2, 5, 5},
		{8, 8, 2, 2},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 4; trial++ {
			sparse := trial%2 == 1
			a := randMatrixRC(rng, sh.ar, sh.ac, sparse)
			b := randMatrixRC(rng, sh.br, sh.bc, sparse)
			v := randVec(rng, sh.ac*sh.bc)
			want := applyKronRef(a, b, v)
			eqVec(t, "ApplyKron", ApplyKron(a, b, v), want)
			dst := make([]complex128, sh.ar*sh.br)
			ApplyKronInto(dst, a, b, v)
			eqVec(t, "ApplyKronInto", dst, want)
		}
	}
}

func TestApplyKronLengthPanics(t *testing.T) {
	a, b := NewMatrix(2, 2), NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyKron accepted a wrong-length vector")
		}
	}()
	ApplyKron(a, b, make([]complex128, 3))
}

// driveGenerator is −i·ts·H for one sample of the CMOS 1Q model's 3-level
// driven transmon (detuned, I/Q drive): 6 nonzeros of 9.
func driveGenerator() *Matrix {
	const ts = 0.4e-9
	delta, alpha, rabi := 2*math.Pi*1e6, 2*math.Pi*-330e6, 2*math.Pi*20e6
	a, ad := Destroy(3), Create(3)
	h := NewMatrix(3, 3)
	for k := 0; k < 3; k++ {
		fk := float64(k)
		h.Set(k, k, complex(delta*fk+alpha/2*fk*(fk-1), 0))
	}
	AddInPlace(h, complex(rabi*0.7/2, 0), Add(a, ad))
	AddInPlace(h, complex(rabi*0.05/2, 0), Scale(1i, Sub(ad, a)))
	return Scale(complex(0, -ts), h)
}

// czGenerator is −i·ts·H for one flux-pulse sample of the CZ model's two
// coupled 3-level transmons: 15 nonzeros of 81, and the |00> row is zero.
func czGenerator() *Matrix {
	const ts = 0.4e-9
	alpha, g, delta := 2*math.Pi*-300e6, 2*math.Pi*10e6, 2*math.Pi*-250e6
	id, a, ad := Identity(3), Destroy(3), Create(3)
	n := Mul(ad, a)
	n1, n2 := Kron(n, id), Kron(id, n)
	anh := func(nOp *Matrix) *Matrix { return Scale(complex(alpha/2, 0), Sub(Mul(nOp, nOp), nOp)) }
	h := Add(anh(n1), anh(n2))
	AddInPlace(h, complex(g, 0), Add(Kron(ad, a), Kron(a, ad)))
	AddInPlace(h, complex(delta, 0), n1)
	return Scale(complex(0, -ts), h)
}

func TestExpmWorkspaceMatchesExpm(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	var w ExpmWorkspace
	check := func(name string, gen *Matrix) {
		t.Helper()
		want := Expm(gen)
		got := NewMatrix(gen.Rows, gen.Cols)
		got.Data[0] = complex(1e300, 0) // poison
		w.ExpmInto(got, gen)
		eqMatrix(t, name, got, want)
		// Aliased dst == m must also work: the input is fully consumed
		// before dst is written.
		alias := gen.Clone()
		w.ExpmInto(alias, alias)
		eqMatrix(t, name+"-aliased", alias, want)
	}
	for _, n := range []int{1, 2, 3, 4, 6, 9, 15} {
		for trial := 0; trial < 3; trial++ {
			// Anti-Hermitian generators (-i·H·t shape) like the evolution
			// code feeds Expm, at norms on both sides of the scaling cutoff.
			h := randMatrixRC(rng, n, n, false)
			check("ExpmInto", Scale(complex(0, -rng.Float64()*3), Add(h, Dagger(h))))
			// Sparse generators exercise the skipped Taylor terms, and a
			// zero row a row with nothing to multiply.
			sparse := Scale(complex(0, -rng.Float64()*3), randMatrixRC(rng, n, n, true))
			check("ExpmInto-sparse", sparse)
			for j := 0; j < n; j++ {
				sparse.Data[(n/2)*n+j] = 0
			}
			check("ExpmInto-zero-row", sparse)
		}
	}
	check("ExpmInto-drive", driveGenerator())
	check("ExpmInto-cz", czGenerator())
}

func TestDaggerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, sh := range []struct{ r, c int }{{1, 1}, {1, 5}, {4, 1}, {3, 3}, {5, 7}} {
		m := randMatrixRC(rng, sh.r, sh.c, true)
		eqMatrix(t, "Dagger∘Dagger", Dagger(Dagger(m)), m)
		// (a⊗b)† == a†⊗b† bit-exactly: conjugation only negates imaginary
		// parts, which commutes with the product av*bv at the bit level.
		a := randMatrixRC(rng, 2, 3, false)
		eqMatrix(t, "Dagger-of-Kron", Dagger(Kron(a, m)), Kron(Dagger(a), Dagger(m)))
	}
}

func TestTraceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for _, n := range []int{1, 2, 5, 9} {
		m := randMatrixRC(rng, n, n, true)
		// tr(m†) == conj(tr(m)) exactly: conjugation distributes over the
		// sum without reordering it.
		if got, want := Trace(Dagger(m)), cmplx.Conj(Trace(m)); got != want {
			t.Fatalf("Trace(Dagger): %v, want %v", got, want)
		}
		if got := Trace(Identity(n)); got != complex(float64(n), 0) {
			t.Fatalf("Trace(I_%d) = %v", n, got)
		}
	}
}
