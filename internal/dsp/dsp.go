// Package dsp provides bit-accurate fixed-point models of the QCI digital
// datapaths whose RTL internal/verilog generates: the drive NCO's phase
// accumulator and sin/cos lookup, a CORDIC rotator for the polar-modulation
// unit, and the AWG pulse-table walker. These functional models play the
// role of the paper's IVerilog/Vivado RTL validation: the tests check them
// against the golden floating-point models in internal/pulse.
package dsp

import (
	"log/slog"
	"math"

	"qisim/internal/obs"
)

// logger is the package's structured-logging seam: silent by default so the
// bit-accurate models stay pure, it can be pointed at a shared slog.Logger
// (SetLogger) to surface quantization diagnostics at debug level.
var logger = obs.Discard()

// SetLogger installs the structured logger the package's debug diagnostics
// go to. Call once at process startup (before concurrent use); nil restores
// the silent default.
func SetLogger(l *slog.Logger) { logger = obs.OrDiscard(l) }

// FixedNCO is the fixed-point phase-accumulator NCO: an unsigned PhaseBits
// accumulator advancing by a frequency control word each sample.
type FixedNCO struct {
	PhaseBits   int
	LUTAddrBits int
	AmpBits     int

	acc  uint64
	mask uint64
	lut  *SinCosLUT
}

// NewFixedNCO builds an NCO with the given widths.
func NewFixedNCO(phaseBits, lutAddrBits, ampBits int) *FixedNCO {
	if phaseBits <= 0 || phaseBits > 62 {
		panic("dsp: phase bits out of range")
	}
	return &FixedNCO{
		PhaseBits:   phaseBits,
		LUTAddrBits: lutAddrBits,
		AmpBits:     ampBits,
		mask:        (uint64(1) << phaseBits) - 1,
		lut:         NewSinCosLUT(lutAddrBits, ampBits),
	}
}

// FreqWord converts a frequency to the accumulator increment per sample.
func (n *FixedNCO) FreqWord(freqHz, sampleRateHz float64) uint64 {
	return uint64(math.Round(freqHz/sampleRateHz*float64(n.mask+1))) & n.mask
}

// Phase returns the accumulator in radians.
func (n *FixedNCO) Phase() float64 {
	return float64(n.acc) / float64(n.mask+1) * 2 * math.Pi
}

// Step advances the accumulator by the frequency word (one sample).
func (n *FixedNCO) Step(freqWord uint64) { n.acc = (n.acc + freqWord) & n.mask }

// Sample produces the I/Q output for an envelope amplitude (full scale =
// 2^(AmpBits-1)-1) and a gate-phase word, matching Eq. (1).
func (n *FixedNCO) Sample(envelope int64, gatePhase uint64) (i, q int64) {
	theta := (n.acc + gatePhase) & n.mask
	addr := theta >> (uint(n.PhaseBits - n.LUTAddrBits))
	c, s := n.lut.At(int(addr))
	scale := int64(1) << uint(n.AmpBits-1)
	i = envelope * c / scale
	q = envelope * s / scale
	return
}

// SinCosLUT is the quarter-wave-symmetric ROM of the NCO and TX banks.
type SinCosLUT struct {
	AddrBits, AmpBits int
	cos, sin          []int64
}

// NewSinCosLUT builds a 2^addrBits-entry table of ampBits signed samples.
func NewSinCosLUT(addrBits, ampBits int) *SinCosLUT {
	n := 1 << addrBits
	l := &SinCosLUT{AddrBits: addrBits, AmpBits: ampBits,
		cos: make([]int64, n), sin: make([]int64, n)}
	scale := float64(int64(1)<<uint(ampBits-1)) - 1
	for k := 0; k < n; k++ {
		th := 2 * math.Pi * float64(k) / float64(n)
		l.cos[k] = int64(math.Round(scale * math.Cos(th)))
		l.sin[k] = int64(math.Round(scale * math.Sin(th)))
	}
	return l
}

// At returns (cos, sin) at a table address.
func (l *SinCosLUT) At(addr int) (c, s int64) {
	return l.cos[addr&(len(l.cos)-1)], l.sin[addr&(len(l.sin)-1)]
}

// CORDIC rotates the unit vector by theta using iters shift-add stages —
// the polar-modulation unit's multiplier-free implementation option.
type CORDIC struct {
	Iters int
	gain  float64
	atan  []float64
}

// NewCORDIC builds a rotator with the given stage count.
func NewCORDIC(iters int) *CORDIC {
	c := &CORDIC{Iters: iters}
	gain := 1.0
	for i := 0; i < iters; i++ {
		c.atan = append(c.atan, math.Atan(math.Pow(2, -float64(i))))
		gain *= math.Sqrt(1 + math.Pow(2, -2*float64(i)))
	}
	c.gain = gain
	return c
}

// Rotate returns (cos θ, sin θ) computed by the CORDIC recurrence (working
// range |θ| ≤ π/2; callers fold quadrants).
func (c *CORDIC) Rotate(theta float64) (cos, sin float64) {
	x, y := 1.0, 0.0
	z := theta
	for i := 0; i < c.Iters; i++ {
		shift := math.Pow(2, -float64(i))
		if z >= 0 {
			x, y = x-y*shift, y+x*shift
			z -= c.atan[i]
		} else {
			x, y = x+y*shift, y-x*shift
			z += c.atan[i]
		}
	}
	return x / c.gain, y / c.gain
}

// SinCos folds the full circle onto the CORDIC working range.
func (c *CORDIC) SinCos(theta float64) (cos, sin float64) {
	theta = math.Mod(theta, 2*math.Pi)
	if theta > math.Pi {
		theta -= 2 * math.Pi
	} else if theta < -math.Pi {
		theta += 2 * math.Pi
	}
	switch {
	case theta > math.Pi/2:
		co, si := c.Rotate(theta - math.Pi)
		return -co, -si
	case theta < -math.Pi/2:
		co, si := c.Rotate(theta + math.Pi)
		return -co, -si
	default:
		return c.Rotate(theta)
	}
}

// AWGEntry is one (amplitude, length) pair of the pulse-table walker; Len
// is the number of samples the amplitude holds (a Len of 0 terminates the
// waveform).
type AWGEntry struct {
	Amp int64
	Len int
}

// AWGWalker is the functional model of verilog.PulseCircuit: it replays a
// table of amplitude/length pairs, holding each amplitude for its length and
// stopping at a zero-length terminator.
type AWGWalker struct {
	Table []AWGEntry

	addr, cnt int
	active    bool
}

// Start arms the walker at a bank base address.
func (w *AWGWalker) Start(base int) {
	w.addr, w.cnt, w.active = base, 0, true
}

// Busy reports whether a pulse is in flight.
func (w *AWGWalker) Busy() bool { return w.active }

// Step advances one clock and returns the DAC output.
func (w *AWGWalker) Step() int64 {
	if !w.active || w.addr >= len(w.Table) || w.Table[w.addr].Len == 0 {
		w.active = false
		return 0
	}
	e := w.Table[w.addr]
	out := e.Amp
	w.cnt++
	if w.cnt >= e.Len {
		w.cnt = 0
		w.addr++
		if w.addr >= len(w.Table) || w.Table[w.addr].Len == 0 {
			w.active = false
		}
	}
	return out
}

// Waveform replays the whole table from base and returns the samples.
func (w *AWGWalker) Waveform(base int) []int64 {
	w.Start(base)
	var out []int64
	for w.Busy() {
		out = append(out, w.Step())
	}
	return out
}

// EncodeEnvelope converts a sampled analogue envelope into the run-length
// (amplitude, length) table the pulse circuit stores — "our memory overhead
// is negligible as we need an arbitrary waveform only for the short
// ramp-up/down period" (Section 3.3.2).
func EncodeEnvelope(samples []float64, ampBits int) []AWGEntry {
	scale := float64(int64(1)<<uint(ampBits-1)) - 1
	var table []AWGEntry
	for _, s := range samples {
		a := int64(math.Round(s * scale))
		if n := len(table); n > 0 && table[n-1].Amp == a {
			table[n-1].Len++
			continue
		}
		table = append(table, AWGEntry{Amp: a, Len: 1})
	}
	table = append(table, AWGEntry{Len: 0}) // terminator
	logger.Debug("envelope encoded",
		"samples", len(samples), "entries", len(table)-1, "amp_bits", ampBits)
	return table
}
