package main

import (
	"math"
	"math/cmplx"
	"sort"
	"time"
)

// The end-to-end times are reported at a reference host speed. A shared host
// runs the same code up to 1.5× slower for minutes at a time, which moves
// every measured time by more than any bound could absorb. So the run times
// fixed kernels owned by the benchmark between operations (and, where an
// operation is a serial sequence of steps, between its steps), and scales
// each operation by how long the kernels took around and during it: a time
// reads as it would on a host where one reference sample takes exactly
// refNominalMS. Program changes cannot touch the kernels, so they move the
// scaled times as they move the wall clock. The unscaled times are in the
// full report under raw.*.

// refNominalMS is the reference sample's typical time on the 2-vCPU VM the
// benchmark was defined on, so that scaled times read close to wall-clock
// times there.
const refNominalMS = 1.5

// refTable is the table kernel's working set: 64 KiB, cache-resident like
// the simulation kernels' state.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<13)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

// refStart and refDFT are the complex kernel's 4×4 operands: any matrix,
// and the unitary DFT matrix it is multiplied by over and over, which keeps
// its size, so the products never overflow or turn subnormal.
var refStart, refDFT = func() (start, dft [16]complex128) {
	for i := range start {
		start[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i))) / 4
		dft[i] = cmplx.Exp(complex(0, -2*math.Pi*float64((i/4)*(i%4))/4)) / 2
	}
	return start, dft
}()

// A reference sample is the sum of two kernels' times, each the fastest of
// refTries timings: refTableIters steps of the table kernel (about 1 ms for
// three timings on the defining VM) and refMatIters steps of the complex
// kernel (about 0.45 ms). An interrupt or a preemption slows one timing; a
// slower host slows all of them.
const (
	refTableIters = 100_000
	refMatIters   = 700
	refTries      = 3
)

// refEvery is the least time between two reference samples taken between
// operations; a sample costs about 1.5 ms.
const refEvery = 100 * time.Millisecond

// refTableKernel is random reads of refTable mixed with a floating-point
// recurrence: branch-free integer work bound by load and operation latency,
// like the decoders and the MC engine. It returns a checksum so the work is
// not optimised away.
func refTableKernel(n int) uint64 {
	x, sum, acc := uint64(0x9E3779B97F4A7C15), uint64(0), 0.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := refTable[x&uint64(len(refTable)-1)]
		sum += v
		acc = acc*0.999 + float64(v>>40)
	}
	return sum + uint64(acc)
}

// refMatKernel repeatedly multiplies 4×4 complex matrices: independent
// floating-point products bound by arithmetic throughput, like the
// Hamiltonian and gate-error models.
func refMatKernel(n int) uint64 {
	x, y := refStart, refDFT
	var z [16]complex128
	for it := 0; it < n; it++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				var s complex128
				for k := 0; k < 4; k++ {
					s += x[4*i+k] * y[4*k+j]
				}
				z[4*i+j] = s
			}
		}
		x, z = z, x
	}
	return math.Float64bits(real(x[0])) ^ math.Float64bits(imag(x[5]))
}

var refSink uint64

// refSample is one reference timing.
type refSample struct {
	at time.Time
	ms float64
}

// bestMS returns refTries × the fastest of refTries timings of f, in ms.
func bestMS(f func()) float64 {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < refTries; i++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return ms(best) * refTries
}

func takeRefSample() refSample {
	table := bestMS(func() { refSink += refTableKernel(refTableIters) })
	mat := bestMS(func() { refSink += refMatKernel(refMatIters) })
	return refSample{at: time.Now(), ms: table + mat}
}

// opRecord is one completed operation: its latency and when it ended.
type opRecord struct {
	end time.Time
	d   time.Duration
}

// refAround is the mean of the samples taken during the operation, the last
// one taken before it started and the first one taken after it ended
// (samples sorted by time).
func refAround(samples []refSample, op opRecord) float64 {
	start := op.end.Add(-op.d)
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(start) })
	j := sort.Search(len(samples), func(j int) bool { return !samples[j].at.Before(op.end) })
	lo, hi := max(i-1, 0), min(j+1, len(samples))
	var total float64
	for _, s := range samples[lo:hi] {
		total += s.ms
	}
	return total / float64(hi-lo)
}

// rawMS returns each operation's latency in ms.
func rawMS(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.d)
	}
	return out
}

// scaledMS returns each operation's latency in ms at the reference speed.
func scaledMS(ops []opRecord, samples []refSample) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.d) * refNominalMS / refAround(samples, op)
	}
	return out
}
