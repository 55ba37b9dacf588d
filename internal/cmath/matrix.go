// Package cmath provides dense complex linear algebra for the Hamiltonian
// simulations that underpin QIsim's gate- and readout-error models.
//
// The package is deliberately small: square and rectangular dense matrices of
// complex128, the handful of operations quantum dynamics needs (products,
// Kronecker products, daggers, matrix exponentials), and the fidelity measures
// used to score noisy unitaries against ideal gates. Everything is stdlib-only
// and allocation-conscious so the error models can run inside test suites and
// benchmarks without external dependencies.
package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmath: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("cmath: FromRows requires at least one row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("cmath: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	mustSameShape(a, b, "Add")
	c := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape(a, b, "Sub")
	c := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s*m.
func Scale(s complex128, m *Matrix) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		c.Data[i] = s * v
	}
	return c
}

// AddInPlace accumulates s*b into a.
func AddInPlace(a *Matrix, s complex128, b *Matrix) {
	mustSameShape(a, b, "AddInPlace")
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmath: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// mulBlockJ is the column-tile width of the blocked MulInto kernel: 64
// complex128 values keep one tile of a b-row (1 KiB) plus the matching
// dst-row tile resident in L1 while the k-loop streams over them. Blocking
// is over i and j only — each dst element still accumulates its k-terms in
// ascending order, so the blocked kernel is bit-identical to the naive
// triple loop (see kernel_equiv_test.go).
const mulBlockJ = 64

// MulInto computes dst = a·b, reusing dst's storage. dst must not alias a or
// b. The kernel is cache-blocked over output columns; the floating-point
// accumulation order per element (ascending k) is the same as the naive
// product, so results are bit-identical to Mul for any blocking.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("cmath: MulInto shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	bc := b.Cols
	for jj := 0; jj < bc; jj += mulBlockJ {
		jhi := jj + mulBlockJ
		if jhi > bc {
			jhi = bc
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			crow := dst.Data[i*bc+jj : i*bc+jhi]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Data[k*bc+jj : k*bc+jhi]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// Dagger returns the conjugate transpose of m.
func Dagger(m *Matrix) *Matrix {
	d := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			d.Data[j*d.Cols+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return d
}

// Kron returns the Kronecker product a⊗b.
func Kron(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.Data[i*a.Cols+j]
			if av == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				for l := 0; l < b.Cols; l++ {
					c.Data[(i*b.Rows+k)*c.Cols+(j*b.Cols+l)] = av * b.Data[k*b.Cols+l]
				}
			}
		}
	}
	return c
}

// Trace returns the trace of a square matrix.
func Trace(m *Matrix) complex128 {
	if !m.IsSquare() {
		panic("cmath: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// MaxAbs returns the largest element magnitude, used for exponential scaling.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// OneNorm returns the maximum absolute column sum.
func (m *Matrix) OneNorm() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += cmplx.Abs(m.Data[i*m.Cols+j])
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum |a_ij|^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// Expm returns the matrix exponential exp(m) computed by scaling-and-squaring
// with a truncated Taylor series. The series order is chosen so the truncation
// error is far below the physical noise floors the simulators care about.
func Expm(m *Matrix) *Matrix {
	if !m.IsSquare() {
		panic("cmath: Expm of non-square matrix")
	}
	norm := m.OneNorm()
	// Scale so the scaled norm is <= 0.5, then square back up.
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	scaled := Scale(complex(1/math.Pow(2, float64(s)), 0), m)

	// Taylor series: with norm <= 0.5, 18 terms give ~1e-17 truncation error.
	result := Identity(m.Rows)
	term := Identity(m.Rows)
	tmp := NewMatrix(m.Rows, m.Cols)
	for k := 1; k <= 18; k++ {
		MulInto(tmp, term, scaled)
		term, tmp = tmp, term
		invK := complex(1/float64(k), 0)
		for i := range term.Data {
			term.Data[i] *= invK
		}
		for i := range result.Data {
			result.Data[i] += term.Data[i]
		}
	}
	// Square s times.
	sq := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < s; i++ {
		MulInto(sq, result, result)
		result, sq = sq, result
	}
	return result
}

// ApplyKron computes (a⊗b)·v without materializing the Kronecker product.
// len(v) must equal a.Cols*b.Cols; the result has length a.Rows*b.Rows.
// Each output element accumulates its column terms in the same ascending
// order as Kron(a, b).ApplyTo(v), so the result is bit-identical to the
// materialized product (zero rows of a are skipped, which only drops exact
// +0 contributions).
func ApplyKron(a, b *Matrix, v []complex128) []complex128 {
	out := make([]complex128, a.Rows*b.Rows)
	ApplyKronInto(out, a, b, v)
	return out
}

// ApplyKronInto is ApplyKron writing into dst, which must have length
// a.Rows*b.Rows and must not alias v.
func ApplyKronInto(dst []complex128, a, b *Matrix, v []complex128) {
	if len(v) != a.Cols*b.Cols {
		panic("cmath: ApplyKron input length mismatch")
	}
	if len(dst) != a.Rows*b.Rows {
		panic("cmath: ApplyKron output length mismatch")
	}
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k := 0; k < b.Rows; k++ {
			brow := b.Data[k*bc : (k+1)*bc]
			var s complex128
			for j, av := range arow {
				if av == 0 {
					continue
				}
				vseg := v[j*bc : (j+1)*bc]
				for l, bv := range brow {
					// (av*bv)*v — same product grouping as the
					// materialized Kron entry times v.
					s += av * bv * vseg[l]
				}
			}
			dst[i*b.Rows+k] = s
		}
	}
}

// ExpmWorkspace holds the scratch matrices Expm needs so repeated
// exponentials of same-sized matrices (time-stepped Hamiltonian evolution)
// allocate nothing after the first call. The zero value is ready to use.
type ExpmWorkspace struct {
	result, term, tmp *Matrix
	// The scaled generator by rows, zeros left out: row k's nonzero
	// entries are val[start[k]:start[k+1]], and col holds their columns
	// at the same indices.
	val   []complex128
	col   []int
	start []int
}

func (w *ExpmWorkspace) ensure(n int) {
	if w.result == nil || w.result.Rows != n {
		w.result = NewMatrix(n, n)
		w.term = NewMatrix(n, n)
		w.tmp = NewMatrix(n, n)
		w.start = make([]int, n+1)
	}
}

// ExpmInto computes dst = exp(m) using the workspace's scratch buffers. The
// operation sequence replays Expm's, except that the Taylor products skip
// the scaled generator's zero entries: each output element still adds its
// k-terms in ascending k, and a skipped term is an exact zero, which cannot
// change an accumulator that starts at +0. So for finite m the result is
// bit-identical to the allocating path; NaN and Inf entries are not zero,
// so a non-finite m still gives a non-finite result. dst may alias m; it
// must not be a workspace buffer.
func (w *ExpmWorkspace) ExpmInto(dst, m *Matrix) {
	if !m.IsSquare() {
		panic("cmath: Expm of non-square matrix")
	}
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("cmath: ExpmInto shape mismatch")
	}
	n := m.Rows
	w.ensure(n)

	norm := m.OneNorm()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	inv := complex(1/math.Pow(2, float64(s)), 0)
	w.val, w.col = w.val[:0], w.col[:0]
	for k := 0; k < n; k++ {
		w.start[k] = len(w.val)
		for j, v := range m.Data[k*n : (k+1)*n] {
			if sv := inv * v; sv != 0 {
				w.val = append(w.val, sv)
				w.col = append(w.col, j)
			}
		}
	}
	w.start[n] = len(w.val)

	result, term, tmp := w.result, w.term, w.tmp
	setIdentity(result)
	setIdentity(term)
	for k := 1; k <= 18; k++ {
		w.mulScaled(tmp, term)
		term, tmp = tmp, term
		invK := complex(1/float64(k), 0)
		for i := range term.Data {
			term.Data[i] *= invK
		}
		for i := range result.Data {
			result.Data[i] += term.Data[i]
		}
	}
	sq := tmp
	for i := 0; i < s; i++ {
		MulInto(sq, result, result)
		result, sq = sq, result
	}
	copy(dst.Data, result.Data)
}

// mulScaled computes dst = a·scaled like MulInto(dst, a, scaled), visiting
// only scaled's nonzero entries.
func (w *ExpmWorkspace) mulScaled(dst, a *Matrix) {
	n := a.Rows
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		for k, av := range a.Data[i*n : (i+1)*n] {
			if av == 0 {
				continue
			}
			lo, hi := w.start[k], w.start[k+1]
			for p, bv := range w.val[lo:hi] {
				crow[w.col[lo+p]] += av * bv
			}
		}
	}
}

func setIdentity(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// ApplyTo computes m·v for a vector v.
func (m *Matrix) ApplyTo(v []complex128) []complex128 {
	return m.ApplyToInto(make([]complex128, m.Rows), v)
}

// ApplyToInto computes m·v into dst (len m.Rows) and returns dst, with the
// same accumulation order as ApplyTo. dst must not alias v.
func (m *Matrix) ApplyToInto(dst, v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic("cmath: ApplyTo length mismatch")
	}
	if len(dst) != m.Rows {
		panic("cmath: ApplyToInto destination length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// IsUnitary reports whether m†m ≈ I within tol (Frobenius norm of deviation).
func IsUnitary(m *Matrix, tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	p := Mul(Dagger(m), m)
	dev := Sub(p, Identity(m.Rows))
	return dev.FrobeniusNorm() < tol
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%+.4f%+.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func mustSameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("cmath: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
