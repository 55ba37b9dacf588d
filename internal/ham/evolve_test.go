package ham_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qisim/internal/cmath"
	"qisim/internal/gateerror"
	"qisim/internal/ham"
	"qisim/internal/pulse"
)

// czPulse returns a flux pulse of the DefaultCZConfig transmon pair: env
// sampled at the config's rate, quantised to bits (0 keeps it ideal),
// reaching scale times the resonance detuning, as one 9×9 Hamiltonian per
// sample, and the sample period.
func czPulse(env pulse.Envelope, scale float64, bits int) ([]*cmath.Matrix, float64) {
	cfg := gateerror.DefaultCZConfig()
	alpha := 2 * math.Pi * cfg.AnharmonicityHz
	idle := 2 * math.Pi * cfg.IdleDetuningHz
	sys := ham.NewCoupledTransmons(3, alpha, alpha, 2*math.Pi*cfg.CouplingHz, idle)
	n := int(math.Round(cfg.GateTime * cfg.SampleRateHz))
	amps := pulse.Samples(env, n, cfg.GateTime)
	if bits > 0 {
		amps = pulse.Quantize(amps, bits)
	}
	hs := make([]*cmath.Matrix, n)
	for k, a := range amps {
		hs[k] = sys.Hamiltonian(idle + (sys.ResonanceDetuning()*scale-idle)*a)
	}
	return hs, cfg.GateTime / float64(n)
}

// dragPulse returns the DefaultCMOS1QConfig DRAG pulse, the cosine
// envelope on the gate axis and its derivative in quadrature, at scale
// times the nominal Rabi rate and the given drive detuning, quantised to
// bits (0 keeps it ideal), as one 3×3 Hamiltonian per sample, and the
// sample period.
func dragPulse(axis byte, scale, detuneRad float64, bits int) ([]*cmath.Matrix, float64) {
	cfg := gateerror.DefaultCMOS1QConfig()
	n := int(math.Round(cfg.GateTime * cfg.SampleRateHz))
	ts := cfg.GateTime / float64(n)
	amps := pulse.Samples(pulse.CosineEnvelope{}, n, cfg.GateTime)
	var area float64
	for _, a := range amps {
		area += a * ts
	}
	alpha := 2 * math.Pi * cfg.AnharmonicityHz
	drag := make([]float64, n)
	for k := range drag {
		t := (float64(k) + 0.5) * ts
		drag[k] = -math.Pi / cfg.GateTime * math.Sin(2*math.Pi*t/cfg.GateTime) / alpha
	}
	if bits > 0 {
		amps, drag = pulse.Quantize(amps, bits), pulse.Quantize(drag, bits)
	}
	d := ham.NewDrivenTransmon(3, detuneRad, alpha, scale*cfg.Theta/area)
	hs := make([]*cmath.Matrix, n)
	for k := range hs {
		if axis == 'y' {
			hs[k] = d.Hamiltonian(-drag[k], amps[k])
		} else {
			hs[k] = d.Hamiltonian(amps[k], drag[k])
		}
	}
	return hs, ts
}

// randomHermitian returns a Hermitian matrix whose off-diagonal entries
// couple only indices with equal labels, each such pair nonzero with
// probability 3/4, with entries of about the given size.
func randomHermitian(rng *rand.Rand, labels []int, size float64) *cmath.Matrix {
	n := len(labels)
	h := cmath.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		h.Set(i, i, complex(size*rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			if labels[i] == labels[j] && rng.Intn(4) > 0 {
				v := complex(size*rng.NormFloat64(), size*rng.NormFloat64())
				h.Set(i, j, v)
				h.Set(j, i, complex(real(v), -imag(v)))
			}
		}
	}
	return h
}

// randomPulse returns count samples over the labels' block structure, at
// sizes spread over two decades so the scaling exponent varies. A sample
// repeats the one before it, redraws one block of it and keeps the rest
// bit for bit, or is drawn afresh.
func randomPulse(rng *rand.Rand, labels []int, count int) []*cmath.Matrix {
	size := func() float64 { return math.Exp(6*rng.Float64() - 3) }
	hs := []*cmath.Matrix{randomHermitian(rng, labels, size())}
	for len(hs) < count {
		prev := hs[len(hs)-1]
		switch rng.Intn(4) {
		case 0:
			hs = append(hs, prev)
		case 1:
			redraw := labels[rng.Intn(len(labels))]
			fresh := randomHermitian(rng, labels, size())
			h := prev.Clone()
			for i, li := range labels {
				for j, lj := range labels {
					if li == redraw && lj == redraw {
						h.Set(i, j, fresh.At(i, j))
					}
				}
			}
			hs = append(hs, h)
		default:
			hs = append(hs, randomHermitian(rng, labels, size()))
		}
	}
	return hs
}

type evolveCase struct {
	name string
	hs   []*cmath.Matrix
	ts   float64
}

// evolveCases are the pulses the workspace must evolve exactly as the dense
// reference does.
func evolveCases() []evolveCase {
	var cases []evolveCase
	add := func(name string, hs []*cmath.Matrix, ts float64) {
		cases = append(cases, evolveCase{name, hs, ts})
	}
	for _, ramp := range []float64{0.04, 0.14, 0.35} {
		for _, scale := range []float64{0.92, 1, 1.08} {
			hs, ts := czPulse(pulse.FlatTopEnvelope{RampFrac: ramp}, scale, 0)
			add(fmt.Sprintf("cz flat-top ramp=%v scale=%v", ramp, scale), hs, ts)
		}
		hs, ts := czPulse(pulse.FlatTopEnvelope{RampFrac: ramp}, 1, 6)
		add(fmt.Sprintf("cz flat-top ramp=%v 6-bit", ramp), hs, ts)
	}
	hs, ts := czPulse(pulse.UnitStepEnvelope{}, 1, 0)
	add("cz unit step", hs, ts)
	for _, axis := range []byte{'x', 'y'} {
		for _, bits := range []int{0, 4} {
			hs, ts := dragPulse(axis, 1.01, 2*math.Pi*0.4e6, bits)
			add(fmt.Sprintf("cmos1q drag axis=%c bits=%d", axis, bits), hs, ts)
		}
	}

	// Neighbours that differ only in the sign of a zero entry (no direct
	// 0↔2 drive term) are different inputs, so neither reuses the other's
	// propagator.
	d := ham.NewDrivenTransmon(3, 2*math.Pi*1e6, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	h := d.Hamiltonian(0.7, 0.1)
	negZero := h.Clone()
	negZero.Set(0, 2, complex(math.Copysign(0, -1), math.Copysign(0, -1)))
	negRe := h.Clone()
	negRe.Set(2, 0, complex(math.Copysign(0, -1), 0))
	add("signed-zero neighbours", []*cmath.Matrix{h, negZero, h, negRe, negRe, negZero}, 0.4e-9)

	// A block that stays bitwise equal while its neighbour grows: the
	// equal-sample reuse must be decided per sample, since the neighbour
	// changes the whole generator's one-norm and so the steady block's
	// scaling exponent.
	steady := cmath.FromRows([][]complex128{
		{1, 0.5i, 0, 0},
		{-0.5i, -1, 0, 0},
		{0, 0, 0.1, 0.05},
		{0, 0, 0.05, 0},
	})
	grown := steady.Clone()
	grown.Set(2, 2, 20)
	grown.Set(2, 3, 5)
	grown.Set(3, 2, 5)
	add("steady block beside a growing one", []*cmath.Matrix{steady, grown, grown, steady}, 1)

	rng := rand.New(rand.NewSource(20261017))
	structures := []struct {
		name   string
		labels func(n int) []int
	}{
		{"interleaved", func(n int) []int {
			l := make([]int, n)
			for i := range l {
				l[i] = rng.Intn(3)
			}
			return l
		}},
		{"1x1 blocks", func(n int) []int {
			l := make([]int, n)
			for i := range l {
				l[i] = rng.Intn(n)
			}
			return l
		}},
		{"all-diagonal", func(n int) []int {
			l := make([]int, n)
			for i := range l {
				l[i] = i
			}
			return l
		}},
		{"fully dense", func(n int) []int { return make([]int, n) }},
	}
	for _, st := range structures {
		for c := 0; c < 12; c++ {
			n := 1 + rng.Intn(9)
			labels := st.labels(n)
			add(fmt.Sprintf("random %s n=%d labels=%v", st.name, n, labels),
				randomPulse(rng, labels, 1+c), 1)
		}
	}
	// Sample counts from one run to more runs than lanes.
	labels := []int{0, 1, 0, 2, 1}
	for count := 1; count <= 9; count++ {
		hs := make([]*cmath.Matrix, count)
		for k := range hs {
			hs[k] = randomHermitian(rng, labels, 1)
		}
		add(fmt.Sprintf("%d distinct samples", count), hs, 1)
	}
	return cases
}

// TestEvolveSamplesIntoMatchesEvolveSamples pins the workspace path, which
// evolves block by block on GOMAXPROCS lanes and reuses a repeated sample's
// propagator, to the dense allocating reference bit for bit, through one
// workspace reused across every case and lane count.
func TestEvolveSamplesIntoMatchesEvolveSamples(t *testing.T) {
	cases := evolveCases()
	wants := make([]*cmath.Matrix, len(cases))
	for i, c := range cases {
		wants[i] = ham.EvolveSamples(c.hs, c.ts)
	}
	// A NaN or Inf sample, repeated so the reuse path sees its bits too,
	// must still give a non-finite propagator, so that a caller's finite
	// check can report it.
	nan, tsNaN := dragPulse('x', 1, 0, 0)
	nan[20] = nan[20].Clone()
	nan[20].Set(0, 1, complex(math.NaN(), 0))
	nan[21] = nan[20]
	inf, tsInf := czPulse(pulse.FlatTopEnvelope{RampFrac: 0.14}, 1, 0)
	inf[60] = inf[60].Clone()
	inf[60].Set(4, 4, complex(math.Inf(1), 0))
	inf[61] = inf[60]
	nonFinite := []evolveCase{{"NaN drive", nan, tsNaN}, {"Inf flux", inf, tsInf}}
	for _, c := range nonFinite {
		if ham.EvolveSamples(c.hs, c.ts).IsFinite() {
			t.Fatalf("%s sample: reference propagator is finite", c.name)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var w ham.EvolveWorkspace
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			want := wants[i]
			got := cmath.NewMatrix(want.Rows, want.Cols)
			for e := range got.Data {
				got.Data[e] = 7 + 7i // stale entries must not survive
			}
			w.EvolveSamplesInto(got, c.hs, c.ts)
			for e, v := range want.Data {
				g := got.Data[e]
				if math.Float64bits(real(g)) != math.Float64bits(real(v)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(v)) {
					t.Fatalf("GOMAXPROCS=%d, %s: element %d = %v, want %v (not bit-identical)",
						procs, c.name, e, g, v)
				}
			}
		}
		for _, c := range nonFinite {
			got := cmath.NewMatrix(c.hs[0].Rows, c.hs[0].Cols)
			w.EvolveSamplesInto(got, c.hs, c.ts)
			if got.IsFinite() {
				t.Fatalf("GOMAXPROCS=%d: %s sample: workspace propagator is finite:\n%v",
					procs, c.name, got)
			}
		}
	}
}

// BenchmarkEvolveSamples times one EvolveSamplesInto of each gate-error
// pulse through a warmed workspace: the DefaultCZConfig flat-top flux pulse
// (125 samples, 9×9) and the DefaultCMOS1QConfig DRAG pulse (3×3). Run it
// at -cpu 1,2 to see the single-lane and the multi-lane cost.
func BenchmarkEvolveSamples(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pulse func() ([]*cmath.Matrix, float64)
	}{
		{"cz-flat-top", func() ([]*cmath.Matrix, float64) {
			return czPulse(gateerror.DefaultCZConfig().Envelope, 1, 0)
		}},
		{"cmos1q-drag", func() ([]*cmath.Matrix, float64) { return dragPulse('x', 1, 0, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			hs, ts := bc.pulse()
			dst := cmath.NewMatrix(hs[0].Rows, hs[0].Cols)
			var w ham.EvolveWorkspace
			w.EvolveSamplesInto(dst, hs, ts) // size the scratch before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.EvolveSamplesInto(dst, hs, ts)
			}
		})
	}
}
