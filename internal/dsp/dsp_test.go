package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"qisim/internal/pulse"
)

func TestFixedNCOTracksFloatPhase(t *testing.T) {
	n := NewFixedNCO(24, 10, 14)
	fw := n.FreqWord(200e6, 2.5e9)
	steps := 1000
	for k := 0; k < steps; k++ {
		n.Step(fw)
	}
	want := math.Mod(2*math.Pi*200e6/2.5e9*float64(steps), 2*math.Pi)
	got := n.Phase()
	diff := math.Abs(math.Mod(got-want+3*math.Pi, 2*math.Pi) - math.Pi)
	// 24-bit accumulator: phase error ≤ steps · 2π/2^24 ≈ 4e-4.
	if diff > 5e-4 {
		t.Fatalf("fixed NCO phase %v vs float %v (diff %v)", got, want, diff)
	}
}

func TestFixedNCOSampleMatchesEq1(t *testing.T) {
	// The fixed-point I/Q must track Eq. (1)'s float samples to LUT+DAC
	// precision.
	n := NewFixedNCO(24, 10, 14)
	fw := n.FreqWord(100e6, 2.5e9)
	fullScale := int64(1)<<13 - 1
	var worst float64
	for k := 0; k < 500; k++ {
		i, q := n.Sample(fullScale, 0)
		theta := n.Phase()
		wi := float64(fullScale) * math.Cos(theta)
		wq := float64(fullScale) * math.Sin(theta)
		if d := math.Abs(float64(i)-wi) / float64(fullScale); d > worst {
			worst = d
		}
		if d := math.Abs(float64(q)-wq) / float64(fullScale); d > worst {
			worst = d
		}
		n.Step(fw)
	}
	// 10-bit LUT: quantisation ≈ 2π/2^10 ≈ 6e-3 worst case.
	if worst > 8e-3 {
		t.Fatalf("fixed-point I/Q deviates %.4f from Eq. (1)", worst)
	}
}

func TestLUTQuarterSymmetry(t *testing.T) {
	l := NewSinCosLUT(8, 14)
	n := 256
	for k := 0; k < n; k++ {
		c1, s1 := l.At(k)
		c2, s2 := l.At(k + n/2)
		if c1 != -c2 || s1 != -s2 {
			t.Fatalf("half-wave symmetry broken at %d", k)
		}
	}
	c0, s0 := l.At(0)
	if s0 != 0 || c0 <= 0 {
		t.Fatal("LUT origin wrong")
	}
}

func TestCORDICAccuracy(t *testing.T) {
	c := NewCORDIC(16)
	for _, th := range []float64{0, 0.3, -1.2, math.Pi / 2, math.Pi, -math.Pi + 0.01, 2.5, -2.9} {
		co, si := c.SinCos(th)
		if math.Abs(co-math.Cos(th)) > 1e-4 || math.Abs(si-math.Sin(th)) > 1e-4 {
			t.Fatalf("CORDIC(%v) = (%v, %v), want (%v, %v)", th, co, si, math.Cos(th), math.Sin(th))
		}
	}
}

func TestCORDICConvergesWithIterations(t *testing.T) {
	th := 0.77
	prev := math.Inf(1)
	for _, iters := range []int{4, 8, 12, 16} {
		c := NewCORDIC(iters)
		co, _ := c.SinCos(th)
		err := math.Abs(co - math.Cos(th))
		if err > prev*1.5 {
			t.Fatalf("CORDIC error should shrink with iterations: %v at %d", err, iters)
		}
		prev = err
	}
}

func TestQuickCORDICUnitNorm(t *testing.T) {
	c := NewCORDIC(20)
	f := func(th float64) bool {
		th = math.Mod(th, math.Pi)
		co, si := c.SinCos(th)
		return math.Abs(co*co+si*si-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAWGRoundTrip(t *testing.T) {
	// Encode the flat-top CZ envelope into the (amp, len) table and replay:
	// the walker must reproduce the quantised samples exactly.
	samples := pulse.Samples(pulse.FlatTopEnvelope{RampFrac: 0.14}, 125, 50e-9)
	table := EncodeEnvelope(samples, 14)
	w := &AWGWalker{Table: table}
	wave := w.Waveform(0)
	dec := DecodeTable(table)
	if len(wave) != len(dec) {
		t.Fatalf("walker produced %d samples, table holds %d", len(wave), len(dec))
	}
	for k := range wave {
		if wave[k] != dec[k] {
			t.Fatalf("walker sample %d = %d, want %d", k, wave[k], dec[k])
		}
	}
	if len(wave) != len(samples) {
		t.Fatalf("round trip length %d, want %d", len(wave), len(samples))
	}
}

func TestAWGCompression(t *testing.T) {
	// Section 3.3.2: the table is tiny because only the ramps need distinct
	// amplitudes — the flat top collapses into one entry.
	samples := pulse.Samples(pulse.FlatTopEnvelope{RampFrac: 0.14}, 125, 50e-9)
	table := EncodeEnvelope(samples, 14)
	if len(table) >= len(samples)/2 {
		t.Fatalf("run-length table (%d entries) should be much smaller than %d samples",
			len(table), len(samples))
	}
	// A unit step compresses to almost nothing.
	step := pulse.Samples(pulse.UnitStepEnvelope{}, 125, 50e-9)
	if st := EncodeEnvelope(step, 14); len(st) > 2 {
		t.Fatalf("unit step should encode to 1 entry + terminator, got %d", len(st))
	}
}

func TestAWGWalkerIdleIsZero(t *testing.T) {
	w := &AWGWalker{Table: []AWGEntry{{Amp: 5, Len: 2}, {Amp: 0, Len: 0}}}
	if w.Busy() {
		t.Fatal("walker must start idle")
	}
	if out := w.Step(); out != 0 {
		t.Fatal("idle walker must output 0")
	}
}

// DecodeTable expands an AWG table back to samples, the reference the
// round-trip checks compare the walker's output with.
func DecodeTable(table []AWGEntry) []int64 {
	var out []int64
	for _, e := range table {
		if e.Len == 0 {
			break
		}
		for k := 0; k < e.Len; k++ {
			out = append(out, e.Amp)
		}
	}
	return out
}
