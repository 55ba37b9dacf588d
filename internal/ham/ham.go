// Package ham builds the Hamiltonians of QIsim's gate- and readout-error
// models and evolves them in time. All Hamiltonians are expressed in angular
// frequency units (rad/s) so that the propagator of a constant slice of
// duration dt is exp(-i·H·dt).
//
// Three physical systems are covered:
//
//   - a single driven transmon, truncated to Levels levels, in the frame
//     rotating at the drive frequency (CMOS/SFQ single-qubit gates),
//   - two coupled flux-tunable transmons with a time-dependent detuning
//     (the CZ gate of both CMOS and SFQ pulse circuits), and
//   - a dispersively coupled qubit–resonator pair treated semi-classically
//     (CMOS dispersive readout and SFQ resonator driving).
package ham

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"qisim/internal/cmath"
)

// EvolveSamples evolves under a piecewise-constant Hamiltonian defined by one
// matrix per digital sample of duration ts each.
func EvolveSamples(hs []*cmath.Matrix, ts float64) *cmath.Matrix {
	if len(hs) == 0 {
		panic("ham: EvolveSamples requires at least one sample")
	}
	u := cmath.Identity(hs[0].Rows)
	for _, hk := range hs {
		uk := cmath.Expm(cmath.Scale(complex(0, -ts), hk))
		u = cmath.Mul(uk, u)
	}
	return u
}

// EvolveWorkspace holds what repeated sample evolutions reuse, so
// calibration searches (which re-run EvolveSamplesInto hundreds of times on
// same-sized systems) allocate nothing after warm-up but one small closure
// per extra lane goroutine, and none at GOMAXPROCS=1. The zero value is
// ready to use; a workspace serves one EvolveSamplesInto at a time.
//
// The evolution works block by block and on every core. A Hamiltonian's
// propagator is block-diagonal over the connected components of its
// off-diagonal nonzero pattern: the exchange-coupled transmon pair
// conserves excitation number, so only 19 of the CZ propagator's 81
// entries can be nonzero. And a pulse's distinct samples are independent
// exponentials, which may be computed in any order as long as they are
// multiplied in sample order.
type EvolveWorkspace struct {
	hs []*cmath.Matrix

	// The blocks of the samples' joint off-diagonal pattern: block b holds
	// the ascending indices idx[start[b]:start[b+1]], and its m×m entries
	// sit at off[b] of a packed block-diagonal matrix of off[len(off)-1]
	// entries. parent is the union-find forest that finds them.
	parent, idx, start, off []int
	// runs[r] is the first sample of the r-th run of bitwise-equal
	// samples, and props holds the packed propagator of each run.
	runs   []int
	props  []complex128
	u, tmp []complex128 // one block's running product and its scratch
	lanes  []evolveLane
	next   atomic.Int64 // the next run a lane claims
	wg     sync.WaitGroup
}

// evolveLane is one core's scratch: the packed generator of the sample it
// exponentiates and one ExpmWorkspace per block.
type evolveLane struct {
	gen  []complex128
	expw []cmath.ExpmWorkspace
}

// HamiltonianBuffer returns n reusable dim×dim sample slots owned by the
// workspace, for callers that rebuild per-sample Hamiltonians in place with
// the *Into variants each evolution.
func (w *EvolveWorkspace) HamiltonianBuffer(n, dim int) []*cmath.Matrix {
	if len(w.hs) != n || (n > 0 && w.hs[0].Rows != dim) {
		w.hs = make([]*cmath.Matrix, n)
		for i := range w.hs {
			w.hs[i] = cmath.NewMatrix(dim, dim)
		}
	}
	return w.hs
}

// EvolveSamplesInto computes the same propagator as EvolveSamples into dst
// in four steps:
//
//  1. It splits the samples into runs of bitwise-equal samples, which
//     share one propagator (flat-top holds, unit steps and quantised
//     plateaus are such runs), and finds the blocks of the runs' joint
//     off-diagonal pattern: for CoupledTransmons the excitation manifolds
//     {|00⟩}, {|01⟩,|10⟩}, {|02⟩,|11⟩,|20⟩}, {|12⟩,|21⟩} and {|22⟩}; a
//     driven transmon stays one block.
//  2. It exponentiates each run's sample block by block on up to
//     GOMAXPROCS lanes, the calling goroutine being the first. Every block
//     is scaled by the whole generator's one-norm, the largest block
//     one-norm, as cmath.ExpmNormInto requires.
//  3. It multiplies each block's propagators in sample order.
//  4. It scatters the blocks into dst and zeroes the rest.
//
// Every lane is joined before it returns. For finite samples every bit of
// dst equals EvolveSamples', whatever the lane count (DESIGN.md,
// "Block-diagonal, parallel pulse evolution", gives the argument); a
// non-finite sample gives a non-finite dst. Once the workspace has seen a
// pulse's block structure and run count, a call allocates only one small
// closure per extra lane. dst must not be one of the hs samples.
func (w *EvolveWorkspace) EvolveSamplesInto(dst *cmath.Matrix, hs []*cmath.Matrix, ts float64) {
	if len(hs) == 0 {
		panic("ham: EvolveSamples requires at least one sample")
	}
	n := hs[0].Rows
	if dst.Rows != n || dst.Cols != n {
		panic("ham: EvolveSamplesInto shape mismatch")
	}
	w.partition(hs)
	nb, size := len(w.start)-1, w.off[len(w.off)-1]
	w.props = resize(w.props, len(w.runs)*size)
	w.u, w.tmp = resize(w.u, n*n), resize(w.tmp, n*n)

	lanes := min(runtime.GOMAXPROCS(0), len(w.runs))
	if len(w.lanes) < lanes {
		w.lanes = append(w.lanes, make([]evolveLane, lanes-len(w.lanes))...)
	}
	for i := range w.lanes[:lanes] {
		l := &w.lanes[i]
		l.gen = resize(l.gen, size)
		if len(l.expw) != nb {
			l.expw = make([]cmath.ExpmWorkspace, nb)
		}
	}
	s := complex(0, -ts)
	w.next.Store(0)
	for i := 1; i < lanes; i++ {
		l := &w.lanes[i]
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.expRuns(l, hs, s)
		}()
	}
	w.expRuns(&w.lanes[0], hs, s)
	w.wg.Wait()

	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for b := 0; b < nb; b++ {
		ix := w.idx[w.start[b]:w.start[b+1]]
		m := len(ix)
		u, tmp := block(w.u, 0, m), block(w.tmp, 0, m)
		for i := range u.Data {
			u.Data[i] = 0
		}
		for i := 0; i < m; i++ {
			u.Data[i*m+i] = 1
		}
		for r, k := range w.runs {
			end := len(hs)
			if r+1 < len(w.runs) {
				end = w.runs[r+1]
			}
			uk := block(w.props, r*size+w.off[b], m)
			for ; k < end; k++ {
				cmath.MulInto(&tmp, &uk, &u)
				u, tmp = tmp, u
			}
		}
		for p, i := range ix {
			for q, j := range ix {
				dst.Data[i*n+j] = u.Data[p*m+q]
			}
		}
	}
}

// partition fills the runs of bitwise-equal samples and the blocks of the
// runs' joint off-diagonal nonzero pattern, ordered by smallest index.
func (w *EvolveWorkspace) partition(hs []*cmath.Matrix) {
	n := hs[0].Rows
	w.parent = resize(w.parent, n)
	for i := range w.parent {
		w.parent[i] = i
	}
	w.runs = w.runs[:0]
	for k, h := range hs {
		if h.Rows != n || h.Cols != n {
			panic("ham: EvolveSamples samples differ in shape")
		}
		if k > 0 && sameBits(h, hs[k-1]) {
			continue
		}
		w.runs = append(w.runs, k)
		for i := 0; i < n; i++ {
			for j, v := range h.Data[i*n : (i+1)*n] {
				if j != i && v != 0 {
					union(w.parent, i, j)
				}
			}
		}
	}
	w.idx, w.start, w.off = w.idx[:0], w.start[:0], w.off[:0]
	size := 0
	for r := 0; r < n; r++ {
		if w.parent[r] != r {
			continue
		}
		w.start = append(w.start, len(w.idx))
		w.off = append(w.off, size)
		for i := r; i < n; i++ {
			if root(w.parent, i) == r {
				w.idx = append(w.idx, i)
			}
		}
		m := len(w.idx) - w.start[len(w.start)-1]
		size += m * m
	}
	w.start = append(w.start, len(w.idx))
	w.off = append(w.off, size)
}

// expRuns exponentiates the runs this lane claims, one at a time, into
// props. Each run's propagator is a pure function of its sample, so which
// lane computes it cannot change a bit.
func (w *EvolveWorkspace) expRuns(l *evolveLane, hs []*cmath.Matrix, s complex128) {
	n, nb, size := hs[0].Rows, len(w.start)-1, w.off[len(w.off)-1]
	for {
		r := int(w.next.Add(1)) - 1
		if r >= len(w.runs) {
			return
		}
		h := hs[w.runs[r]]
		var norm float64
		for b := 0; b < nb; b++ {
			ix := w.idx[w.start[b]:w.start[b+1]]
			g := block(l.gen, w.off[b], len(ix))
			for p, i := range ix {
				for q, j := range ix {
					g.Data[p*len(ix)+q] = s * h.Data[i*n+j]
				}
			}
			if bn := g.OneNorm(); bn > norm {
				norm = bn
			}
		}
		for b := 0; b < nb; b++ {
			m := w.start[b+1] - w.start[b]
			g, u := block(l.gen, w.off[b], m), block(w.props, r*size+w.off[b], m)
			l.expw[b].ExpmNormInto(&u, &g, norm)
		}
	}
}

// block returns the m×m matrix stored at data[off:off+m*m].
func block(data []complex128, off, m int) cmath.Matrix {
	return cmath.Matrix{Rows: m, Cols: m, Data: data[off : off+m*m]}
}

// union joins the sets of i and j under the smaller root, so every root is
// the smallest index of its set.
func union(parent []int, i, j int) {
	i, j = root(parent, i), root(parent, j)
	if i > j {
		i, j = j, i
	}
	parent[j] = i
}

func root(parent []int, i int) int {
	for parent[i] != i {
		i = parent[i]
	}
	return i
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sameBits reports whether a and b hold bitwise-equal entries. Unlike ==, it
// tells +0 from −0 and matches a NaN with itself: equal bits are exactly the
// inputs a deterministic computation must map to equal outputs.
func sameBits(a, b *cmath.Matrix) bool {
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// DrivenTransmon models one transmon driven through its charge line, in the
// frame rotating at the drive frequency.
type DrivenTransmon struct {
	// Levels is the truncation of the transmon ladder (3 captures leakage).
	Levels int
	// DetuningRad is ω_q - ω_d in rad/s (0 for resonant drive).
	DetuningRad float64
	// AnharmonicityRad is the angular anharmonicity α (negative).
	AnharmonicityRad float64
	// RabiRad is the peak Rabi rate Ω in rad/s for unit envelope amplitude.
	RabiRad float64

	n, x, y *cmath.Matrix // cached operators
}

// NewDrivenTransmon builds the model and caches its operators.
func NewDrivenTransmon(levels int, detuningRad, anharmRad, rabiRad float64) *DrivenTransmon {
	d := &DrivenTransmon{
		Levels:           levels,
		DetuningRad:      detuningRad,
		AnharmonicityRad: anharmRad,
		RabiRad:          rabiRad,
	}
	a := cmath.Destroy(levels)
	ad := cmath.Create(levels)
	d.n = cmath.Mul(ad, a)
	d.x = cmath.Add(a, ad)                  // a + a†
	d.y = cmath.Scale(1i, cmath.Sub(ad, a)) // i(a† - a)
	return d
}

// Hamiltonian returns H for instantaneous I/Q drive amplitudes (unit scale):
//
//	H = Δ·n + (α/2)·n(n-1) + (Ω/2)·(I·(a+a†) + Q·i(a†-a))
func (d *DrivenTransmon) Hamiltonian(i, q float64) *cmath.Matrix {
	h := cmath.NewMatrix(d.Levels, d.Levels)
	d.HamiltonianInto(h, i, q)
	return h
}

// HamiltonianInto writes Hamiltonian(i, q) into h, which must be
// Levels×Levels. Results are bit-identical to Hamiltonian.
func (d *DrivenTransmon) HamiltonianInto(h *cmath.Matrix, i, q float64) {
	for idx := range h.Data {
		h.Data[idx] = 0
	}
	for k := 0; k < d.Levels; k++ {
		fk := float64(k)
		diag := d.DetuningRad*fk + d.AnharmonicityRad/2*fk*(fk-1)
		h.Set(k, k, complex(diag, 0))
	}
	cmath.AddInPlace(h, complex(d.RabiRad*i/2, 0), d.x)
	cmath.AddInPlace(h, complex(d.RabiRad*q/2, 0), d.y)
}

// CoupledTransmons models two flux-tunable transmons with exchange coupling g
// for the CZ gate. Qubit 1's frequency is pulsed; the model works in the
// frame rotating at each qubit's idle frequency, so the flux pulse appears as
// a time-dependent detuning δ(t) on qubit 1.
type CoupledTransmons struct {
	Levels     int     // per transmon
	Anharm1Rad float64 // α1 (the pulsed qubit)
	Anharm2Rad float64
	GRad       float64 // exchange coupling g in rad/s
	// IdleDetuningRad is qubit 1's idle detuning from qubit 2 (ω1-ω2 at zero
	// flux), which determines how far the pulse must travel to reach the
	// |11>↔|20> resonance at δ = -α1.
	IdleDetuningRad float64

	hStatic *cmath.Matrix
	n1      *cmath.Matrix
}

// NewCoupledTransmons builds the two-transmon model.
func NewCoupledTransmons(levels int, anharm1, anharm2, g, idleDetuning float64) *CoupledTransmons {
	c := &CoupledTransmons{
		Levels:          levels,
		Anharm1Rad:      anharm1,
		Anharm2Rad:      anharm2,
		GRad:            g,
		IdleDetuningRad: idleDetuning,
	}
	d := levels
	id := cmath.Identity(d)
	a := cmath.Destroy(d)
	ad := cmath.Create(d)
	n := cmath.Mul(ad, a)

	c.n1 = cmath.Kron(n, id)
	n2 := cmath.Kron(id, n)

	// Anharmonic terms (α/2)·n(n-1) for both transmons.
	anh := func(alpha float64, nOp *cmath.Matrix) *cmath.Matrix {
		nn := cmath.Mul(nOp, nOp)
		return cmath.Scale(complex(alpha/2, 0), cmath.Sub(nn, nOp))
	}
	h := cmath.Add(anh(anharm1, c.n1), anh(anharm2, n2))

	// Exchange coupling g(a1†a2 + a1a2†).
	coup := cmath.Add(cmath.Kron(ad, a), cmath.Kron(a, ad))
	cmath.AddInPlace(h, complex(g, 0), coup)
	c.hStatic = h
	return c
}

// ResonanceDetuning returns the qubit-1 detuning at which |11> and |20> are
// degenerate: δ = -α1.
func (c *CoupledTransmons) ResonanceDetuning() float64 { return -c.Anharm1Rad }

// HamiltonianInto writes H for a given instantaneous qubit-1 detuning δ(t)
// (rad/s relative to qubit 2) into h, which must match hStatic's shape.
func (c *CoupledTransmons) HamiltonianInto(h *cmath.Matrix, delta float64) {
	copy(h.Data, c.hStatic.Data)
	cmath.AddInPlace(h, complex(delta, 0), c.n1)
}

// IdealCZ returns the target two-qubit unitary in the computational basis,
// with single-qubit phases removed (the QCI tracks those in software via
// virtual Rz).
func IdealCZ() *cmath.Matrix { return cmath.CZ() }

// StripSingleQubitPhases removes the single-qubit Z phases from a 4x4
// two-qubit diagonal-dominant unitary, returning the entangling part. This
// mirrors the standard CZ calibration convention: phases on |01> and |10> are
// absorbed into virtual Rz, leaving the conditional phase on |11>.
func StripSingleQubitPhases(u *cmath.Matrix) *cmath.Matrix {
	if u.Rows != 4 || u.Cols != 4 {
		panic("ham: StripSingleQubitPhases requires a 4x4 matrix")
	}
	phase := func(v complex128) float64 { return math.Atan2(imag(v), real(v)) }
	p00 := phase(u.At(0, 0))
	p01 := phase(u.At(1, 1)) - p00
	p10 := phase(u.At(2, 2)) - p00
	corr := cmath.NewMatrix(4, 4)
	ph := []float64{-p00, -p00 - p01, -p00 - p10, -p00 - p01 - p10}
	for k := 0; k < 4; k++ {
		corr.Set(k, k, complex(math.Cos(ph[k]), math.Sin(ph[k])))
	}
	return cmath.Mul(corr, u)
}

// DispersiveResonator is the semi-classical cavity model used by the readout
// error models: a driven, damped oscillator whose frequency is pulled by ±χ
// depending on the qubit state. The coherent-state amplitude α(t) obeys
//
//	dα/dt = -i(Δr ± χ)·α - (κ/2)·α - i·ε(t)
type DispersiveResonator struct {
	DetuningRad float64 // resonator-drive detuning Δr (rad/s)
	ChiRad      float64 // dispersive shift χ (rad/s)
	KappaRad    float64 // linewidth κ (rad/s)
}

// Trajectory integrates α(t) over n steps of dt for the given qubit state
// (+1 → qubit |1>, -1 → qubit |0>) and drive amplitude ε(t) (rad/s), using
// the exact per-step solution of the linear ODE with constant drive.
func (r DispersiveResonator) Trajectory(qubitSign float64, eps func(t float64) float64, n int, dt float64) []complex128 {
	out := make([]complex128, n)
	lam := complex(-r.KappaRad/2, -(r.DetuningRad + qubitSign*r.ChiRad))
	var alpha complex128
	for k := 0; k < n; k++ {
		t := float64(k) * dt
		e := complex(0, -eps(t))
		// α(t+dt) = e^{λ dt}α + (e^{λ dt}-1)/λ · (-iε)
		eld := cexp(lam * complex(dt, 0))
		if lam != 0 {
			alpha = eld*alpha + (eld-1)/lam*e
		} else {
			alpha += e * complex(dt, 0)
		}
		out[k] = alpha
	}
	return out
}

// SteadyState returns the steady-state amplitude for constant drive eps.
func (r DispersiveResonator) SteadyState(qubitSign, eps float64) complex128 {
	lam := complex(-r.KappaRad/2, -(r.DetuningRad + qubitSign*r.ChiRad))
	return complex(0, -eps) / (-lam)
}

func cexp(z complex128) complex128 {
	e := math.Exp(real(z))
	return complex(e*math.Cos(imag(z)), e*math.Sin(imag(z)))
}
