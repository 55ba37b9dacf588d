package pauli

import (
	"context"
	"math"
	"testing"

	"qisim/internal/gateerror"
	"qisim/internal/simrun"
)

func TestDecoherenceChannelTracePreserving(t *testing.T) {
	for _, tt := range []float64{0, 10e-9, 1e-6, 100e-6, 1e-3} {
		c := DecoherenceChannel(tt, 122e-6, 118e-6)
		if !c.TracePreserving(1e-10) {
			t.Fatalf("channel at t=%v not trace preserving", tt)
		}
	}
}

func TestChannelFidelityMatchesClosedForm(t *testing.T) {
	// The 2-design average over the Kraus channel must equal the
	// Bloch–Redfield closed form used throughout the error models:
	// F = 1/2 + e^{-t/T1}/6 + e^{-t/T2}/3.
	t1, t2 := 122e-6, 118e-6
	for _, tt := range []float64{0, 25e-9, 517e-9, 5e-6, 50e-6, 500e-6} {
		got := AverageChannelFidelity(DecoherenceChannel(tt, t1, t2))
		want := gateerror.DecoherenceFidelity(tt, t1, t2)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("t=%v: Kraus average %v vs closed form %v", tt, got, want)
		}
	}
}

func TestChannelFidelityT2LimitedCase(t *testing.T) {
	// Strong dephasing (T2 << 2T1) must also match.
	t1, t2 := 200e-6, 50e-6
	tt := 10e-6
	got := AverageChannelFidelity(DecoherenceChannel(tt, t1, t2))
	want := gateerror.DecoherenceFidelity(tt, t1, t2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kraus average %v vs closed form %v", got, want)
	}
}

func TestTrajectoryConvergesToExact(t *testing.T) {
	c := DecoherenceChannel(20e-6, 122e-6, 118e-6)
	exact := AverageChannelFidelity(c)
	res, err := TrajectoryAverageFidelityCtx(context.Background(), c, 120000, 7, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mc := res.Fidelity; math.Abs(mc-exact) > 0.01 {
		t.Fatalf("trajectory MC %v vs exact %v", mc, exact)
	}
}

func TestChannelLimits(t *testing.T) {
	// t=0 → identity channel.
	if f := AverageChannelFidelity(DecoherenceChannel(0, 1e-4, 1e-4)); math.Abs(f-1) > 1e-12 {
		t.Fatalf("F(0) = %v", f)
	}
	// t→∞ → relax to |0>: F = 1/2.
	if f := AverageChannelFidelity(DecoherenceChannel(1, 1e-4, 1e-4)); math.Abs(f-0.5) > 1e-6 {
		t.Fatalf("F(∞) = %v", f)
	}
}
