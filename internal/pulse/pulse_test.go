package pulse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCosineEnvelope(t *testing.T) {
	c := CosineEnvelope{}
	T := 1.0
	if math.Abs(c.Amplitude(0, T)) > 1e-12 || math.Abs(c.Amplitude(T, T)) > 1e-9 {
		t.Fatal("cosine envelope must be zero-ended")
	}
	if math.Abs(c.Amplitude(T/2, T)-1) > 1e-12 {
		t.Fatal("cosine envelope peak must be 1")
	}
}

func TestFlatTopEnvelope(t *testing.T) {
	f := FlatTopEnvelope{RampFrac: 0.2}
	T := 50e-9
	if math.Abs(f.Amplitude(0, T)) > 1e-12 {
		t.Fatal("flat-top must start at zero")
	}
	// Hold region is flat at 1.
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		if math.Abs(f.Amplitude(frac*T, T)-1) > 1e-12 {
			t.Fatalf("flat-top hold at %v not 1", frac)
		}
	}
	// Monotonic ramp-up.
	prev := -1.0
	for i := 0; i <= 20; i++ {
		a := f.Amplitude(float64(i)/20*0.2*T, T)
		if a < prev-1e-12 {
			t.Fatal("ramp-up not monotonic")
		}
		prev = a
	}
}

func TestUnitStepEnvelope(t *testing.T) {
	u := UnitStepEnvelope{}
	if u.Amplitude(0, 1) != 1 || u.Amplitude(0.5, 1) != 1 || u.Amplitude(1, 1) != 1 {
		t.Fatal("unit step must be 1 inside the pulse")
	}
	if u.Amplitude(-0.1, 1) != 0 || u.Amplitude(1.1, 1) != 0 {
		t.Fatal("unit step must be 0 outside the pulse")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	in := []float64{0, 0.5, -0.5, 1, -1, 0.123456}
	out := Quantize(in, 14)
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1.0/(1<<13) {
			t.Fatalf("14-bit quantisation error too large at %d: %v vs %v", i, out[i], in[i])
		}
	}
	// Exact grid points survive.
	if out[1] != 0.5 || out[3] != 1 {
		t.Fatal("grid points should be exact")
	}
}

func TestQuantizeCoarse(t *testing.T) {
	// 2-bit signed: grid is multiples of 1/2.
	out := Quantize([]float64{0.3, 0.74}, 2)
	if out[0] != 0.5 || out[1] != 0.5 {
		t.Fatalf("2-bit quantisation = %v, want [0.5 0.5]", out)
	}
}

func TestQuantizeErrorDecreasesWithBits(t *testing.T) {
	env := Samples(CosineEnvelope{}, 64, 25e-9)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{3, 5, 7, 9, 12} {
		q := Quantize(env, bits)
		var rms float64
		for i := range env {
			d := q[i] - env[i]
			rms += d * d
		}
		rms = math.Sqrt(rms / float64(len(env)))
		if rms > prev+1e-15 {
			t.Fatalf("quantisation RMS error should not grow with bits (bits=%d: %v > %v)", bits, rms, prev)
		}
		prev = rms
	}
}

func TestAddNoiseSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sig := make([]float64, 20000)
	for i := range sig {
		sig[i] = math.Sin(float64(i) / 10)
	}
	noisy := AddNoiseSNR(sig, 20, rng) // 20 dB → noise power = signal/100
	var np, sp float64
	for i := range sig {
		d := noisy[i] - sig[i]
		np += d * d
		sp += sig[i] * sig[i]
	}
	ratio := 10 * math.Log10(sp/np)
	if math.Abs(ratio-20) > 0.5 {
		t.Fatalf("achieved SNR %.2f dB, want ~20 dB", ratio)
	}
}

func TestDriveEnergyResonant(t *testing.T) {
	// A train periodic at the resonator frequency accumulates coherently;
	// off-resonant trains accumulate far less.
	fclk := 24e9
	fres := 6.0e9 // period = 4 clock cycles
	tr := AlignedTrain(400, fres, fclk, 1)
	onRes := tr.DriveEnergyAt(fres, fclk)
	offRes := tr.DriveEnergyAt(fres*1.13, fclk)
	if onRes < float64(tr.Count())*0.999 {
		t.Fatalf("resonant drive energy %v should equal pulse count %d", onRes, tr.Count())
	}
	if offRes > onRes/5 {
		t.Fatalf("off-resonant energy %v should be much smaller than %v", offRes, onRes)
	}
}

func TestFastDrivingDoubleRate(t *testing.T) {
	// Opt-#8: doubling the clock packs twice the pulses per time window at the
	// same resonator frequency → about twice the drive energy per unit time.
	fres := 6.0e9
	slow := AlignedTrain(100, fres, 24e9, 1) // one pulse per resonator period
	fast := AlignedTrain(200, fres, 48e9, 2) // same wall time, 2 pulses/period
	eSlow := slow.DriveEnergyAt(fres, 24e9)
	eFast := fast.DriveEnergyAt(fres, 48e9)
	// Two pulses π/4 apart add to |1+e^{iπ/4}| ≈ 1.85 per period.
	if eFast < 1.8*eSlow {
		t.Fatalf("fast driving should ~double drive energy: %v vs %v", eFast, eSlow)
	}
	// The window may cut the last burst short by one pulse.
	if c := fast.Count(); c < 2*slow.Count()-1 || c > 2*slow.Count() {
		t.Fatalf("burst train should double the pulse count: %d vs %d", c, slow.Count())
	}
}

func TestQuickQuantizeBounded(t *testing.T) {
	f := func(v float64, bits uint8) bool {
		b := int(bits%14) + 1
		in := math.Mod(v, 1)
		q := Quantize([]float64{in}, b)[0]
		return q >= -1 && q <= 1 && math.Abs(q-in) <= 1.0/float64(int64(1)<<(b-1))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnvelopesBounded(t *testing.T) {
	envs := []Envelope{CosineEnvelope{}, FlatTopEnvelope{}, UnitStepEnvelope{}}
	f := func(frac float64) bool {
		x := math.Abs(math.Mod(frac, 1))
		for _, e := range envs {
			a := e.Amplitude(x*50e-9, 50e-9)
			if a < -1e-9 || a > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedTrainPhaseLock(t *testing.T) {
	// One pulse group per resonator period even for irrational ratios.
	tr := AlignedTrain(4096, 6.8e9, 24e9, 1)
	want := int(math.Floor(6.8 / 24.0 * 4096.0))
	if c := tr.Count(); c < want-2 || c > want+2 {
		t.Fatalf("aligned train fired %d times, want ~%d", c, want)
	}
	// Its coherent energy at the resonator frequency approaches the count.
	e := tr.DriveEnergyAt(6.8e9, 24e9)
	if e < 0.85*float64(tr.Count()) {
		t.Fatalf("aligned train not phase-locked: energy %v of %d pulses", e, tr.Count())
	}
	// Burst variant doubles the count.
	tr2 := AlignedTrain(4096, 6.8e9, 48e9, 2)
	if tr2.Count() < int(math.Floor(1.8*6.8/48.0*4096.0)) {
		t.Fatalf("burst aligned train too sparse: %d", tr2.Count())
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	// bits <= 0 and huge bit widths pass samples through unchanged.
	in := []float64{0.123, -0.5}
	for _, bits := range []int{0, -3, 60} {
		out := Quantize(in, bits)
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("bits=%d should pass through, got %v", bits, out)
			}
		}
	}
	// Saturation at the rails.
	if q := Quantize([]float64{1.7, -1.7}, 4); q[0] != 1 || q[1] != -1 {
		t.Fatalf("out-of-range samples should clamp to ±1, got %v", q)
	}
}

func TestSamplesSinglePoint(t *testing.T) {
	s := Samples(CosineEnvelope{}, 1, 50e-9)
	if len(s) != 1 || math.Abs(s[0]-1) > 1e-12 {
		t.Fatalf("single-sample envelope should sit at the midpoint peak: %v", s)
	}
}
