// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index of DESIGN.md): each function returns
// the rows/series the paper reports, as printable text plus structured
// values the tests assert on. cmd/qisim-experiments prints them;
// experiments_test.go at the repo root and bench/ exercise them.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"qisim/internal/gateerror"
	"qisim/internal/isa"
	"qisim/internal/jpm"
	"qisim/internal/microarch"
	"qisim/internal/phys"
	"qisim/internal/readout"
	"qisim/internal/scalability"
	"qisim/internal/sfq"
	"qisim/internal/simrun"
	"qisim/internal/validate"
	"qisim/internal/wiring"
	"qisim/internal/workloads"
)

// IDs lists every experiment identifier in paper order, followed by the
// extensions ("section7.3" offloading and the ablation suite).
func IDs() []string {
	return []string{
		"fig8", "fig10", "table1", "fig11", "table2",
		"fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "table3",
		"section7.3", "ablations", "features", "dse",
	}
}

// Run dispatches one experiment by id and returns its report.
func Run(id string) (string, error) {
	switch id {
	case "fig8":
		return validate.Report("Fig. 8 — 4K CMOS power validation (vs Horse Ridge I & II)", validate.Fig8CMOSPower()), nil
	case "fig10":
		f, p := validate.Fig10SFQ()
		return validate.Report("Fig. 10(a) — RSFQ frequency validation", f) +
			validate.Report("Fig. 10(b) — RSFQ power validation", p), nil
	case "table1":
		return validate.Report("Table 1 — gate error-rate validation", validate.Table1GateErrors()), nil
	case "fig11":
		rows, err := validate.Fig11Workloads()
		if err != nil {
			return "", fmt.Errorf("experiments: fig11: %w", err)
		}
		return validate.Report("Fig. 11 — workload-level fidelity validation", rows) +
			fmt.Sprintf("average fidelity difference: %.1f%% (paper: 5.1%%)\n", 100*validate.MeanError(rows)), nil
	case "table2":
		return Table2(), nil
	case "fig12":
		return Fig12(), nil
	case "fig13":
		return Fig13(), nil
	case "fig14":
		return Fig14().Report, nil
	case "fig15":
		return Fig15().Report, nil
	case "fig16":
		return Fig16().Report, nil
	case "fig17":
		return Fig17(), nil
	case "fig18":
		return Fig18().Report, nil
	case "fig19":
		r, err := Fig19()
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "fig20":
		return Fig20().Report, nil
	case "table3":
		return Table3(), nil
	case "ablations":
		return Ablations()
	case "section7.3":
		return Section73(), nil
	case "features":
		return Features(), nil
	case "dse":
		r, err := DSE()
		if err != nil {
			return "", err
		}
		return r.Report, nil
	default:
		return "", fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
}

// Table2 prints the scalability-analysis setup.
func Table2() string {
	var b strings.Builder
	b.WriteString("== Table 2 — scalability analysis setup ==\n")
	c := phys.CMOSOperationSpecs()
	s, ro := phys.SFQOperationSpecs()
	fmt.Fprintf(&b, "CMOS ops: 1Q %.3g/%.0fns  2Q %.3g/%.0fns  RO %.3g/%.0fns\n",
		c.OneQ.Error, c.OneQ.Latency*1e9, c.TwoQ.Error, c.TwoQ.Latency*1e9, c.Readout.Error, c.Readout.Latency*1e9)
	fmt.Fprintf(&b, "SFQ ops:  1Q %.3g/%.0fns  2Q %.3g/%.0fns  RO %.3g/%.1fns\n",
		s.OneQ.Error, s.OneQ.Latency*1e9, s.TwoQ.Error, s.TwoQ.Latency*1e9, s.Readout.Error, s.Readout.Latency*1e9)
	fmt.Fprintf(&b, "SFQ readout stages: drive %.1fns, tunnel %.1fns, read %.1fns, reset %.1fns\n",
		ro.ResonatorDriving.Latency*1e9, ro.JPMTunneling.Latency*1e9, ro.JPMReadout.Latency*1e9, ro.Reset.Latency*1e9)
	for _, ct := range []wiring.CableType{wiring.CoaxialCable, wiring.Microstrip, wiring.PhotonicLink, wiring.SuperconductingMicrostrip} {
		fmt.Fprintf(&b, "%-28s", ct.Name)
		for _, st := range []wiring.Stage{wiring.Stage4K, wiring.Stage100mK, wiring.Stage20mK} {
			l := ct.Load(st)
			fmt.Fprintf(&b, "  %s %.3g/%.3gW", st, l.PassiveW, l.ActiveW)
		}
		b.WriteByte('\n')
	}
	cl := phys.DefaultClocks()
	q := phys.DefaultTransmon()
	fmt.Fprintf(&b, "budgets: 1.5W@4K 200µW@100mK 20µW@20mK; clocks %.1fGHz CMOS / %.0fGHz SFQ; T1 %.0fµs T2 %.0fµs\n",
		cl.CMOS4KHz/1e9, cl.SFQHz/1e9, q.T1*1e6, q.T2*1e6)
	return b.String()
}

// analyses evaluates the named design points, in the order given.
func analyses(names ...string) []scalability.Analysis {
	opt := scalability.DefaultOptions()
	ds := microarch.AllDesigns()
	var out []scalability.Analysis
	for _, n := range names {
		for _, d := range ds {
			if d.Name == n {
				out = append(out, scalability.Analyze(d, opt))
			}
		}
	}
	return out
}

// Fig12 reports the 300 K QCI scalability (coax / microstrip / photonic).
func Fig12() string {
	as := analyses("300K-coax", "300K-microstrip", "300K-photonic")
	return "== Fig. 12 — scalability of 300K QCIs ==\n" + scalability.Table(as) +
		"paper: coax 400 / microstrip 650 / photonic 70 qubits\n"
}

// Fig13 reports the near-term 4 K QCI scalability with optimisation stages.
func Fig13() string {
	as := analyses("4K-CMOS-baseline", "4K-CMOS-opt12", "RSFQ-baseline", "RSFQ-naive-sharing", "RSFQ-opt345")
	return "== Fig. 13 — scalability of 4K QCIs (near term) ==\n" + scalability.Table(as) +
		"paper: CMOS <700 → 1,399 (Opt-1,2); RSFQ <160 → 1,248 (Opt-3,4,5)\n"
}

// Fig14Result carries the Opt-#1/#2 bit-precision sweep.
type Fig14Result struct {
	Bits       []int
	GateErrors []float64
	Logical    []float64
	// GateSaturationBits and LogicalSaturationBits are the first bit counts
	// within 2x of the 14-bit floor for each curve (paper: ~9 and ~6).
	GateSaturationBits    int
	LogicalSaturationBits int
	Report                string
}

// Fig14 sweeps the drive DAC precision (Opt-#2's justification).
func Fig14() Fig14Result {
	bits := []int{3, 4, 5, 6, 7, 8, 9, 10, 12, 14}
	r := Fig14Result{Bits: bits}
	cfg := gateerror.DefaultCMOS1QConfig()
	cfg.SNRdB = 0 // isolate quantisation, as Fig. 14(b) does
	// The tune-up never reads Bits, so one calibration serves every depth.
	// The depths share nothing else: each is evaluated on its own goroutine
	// from its own copy of the config, into its own slot.
	cal := gateerror.CalibrateCMOS1Q(cfg)
	var floorGate float64
	errs := make([]float64, len(bits))
	var wg sync.WaitGroup
	for i, bt := range bits {
		wg.Add(1)
		go func(cfg gateerror.CMOS1QConfig) {
			defer wg.Done()
			cfg.Bits = bt
			errs[i] = gateerror.CMOS1QError(cfg, cal).Error
		}(cfg)
	}
	wg.Wait()
	floorGate = errs[len(errs)-1]
	d := microarch.CMOS4KBaseline()
	var floorLog float64
	logs := make([]float64, len(bits))
	for i := range bits {
		extra := errs[i] - floorGate
		logs[i] = d.LogicalError(extra)
	}
	floorLog = logs[len(logs)-1]
	r.GateErrors, r.Logical = errs, logs
	for i, bt := range bits {
		if r.GateSaturationBits == 0 && errs[i] <= 2*floorGate {
			r.GateSaturationBits = bt
		}
		if r.LogicalSaturationBits == 0 && logs[i] <= 2*floorLog {
			r.LogicalSaturationBits = bt
		}
	}
	var b strings.Builder
	b.WriteString("== Fig. 14 — single-qubit gate & logical error vs drive bit precision ==\n")
	fmt.Fprintf(&b, "%6s %14s %14s\n", "bits", "1Q gate error", "logical error")
	for i, bt := range bits {
		fmt.Fprintf(&b, "%6d %14.3g %14.3g\n", bt, errs[i], logs[i])
	}
	fmt.Fprintf(&b, "gate error saturates at %d bits (paper ~9); logical at %d bits (paper 6)\n",
		r.GateSaturationBits, r.LogicalSaturationBits)
	r.Report = b.String()
	return r
}

// Fig15Result carries the Opt-#3 readout-sharing comparison.
type Fig15Result struct {
	UnsharedNS, NaiveNS, PipelinedNS float64
	UnsharedPL, NaivePL, PipelinedPL float64
	Report                           string
}

// Fig15 reports the JPM readout sharing/pipelining latencies and logical
// errors.
func Fig15() Fig15Result {
	var r Fig15Result
	r.UnsharedNS = jpm.NewPipeline(jpm.Unshared).TotalLatency() * 1e9
	r.NaiveNS = jpm.NewPipeline(jpm.NaiveShared).TotalLatency() * 1e9
	r.PipelinedNS = jpm.NewPipeline(jpm.Pipelined).TotalLatency() * 1e9
	r.UnsharedPL = microarch.RSFQBaseline().LogicalError(0)
	r.NaivePL = microarch.RSFQNaiveSharing().LogicalError(0)
	r.PipelinedPL = microarch.RSFQOpt345().LogicalError(0)
	var b strings.Builder
	b.WriteString("== Fig. 15 — Opt-#3 JPM readout sharing & pipelining ==\n")
	fmt.Fprintf(&b, "%-20s %12s %14s\n", "scheme", "latency", "logical error")
	fmt.Fprintf(&b, "%-20s %9.1f ns %14.3g   (paper: 665 ns, 4.13e-16)\n", "unshared", r.UnsharedNS, r.UnsharedPL)
	fmt.Fprintf(&b, "%-20s %9.1f ns %14.3g   (paper: 5,320 ns, 3.50e-7)\n", "naive sharing", r.NaiveNS, r.NaivePL)
	fmt.Fprintf(&b, "%-20s %9.1f ns %14.3g   (paper: 1,255 ns, 1.34e-13)\n", "sharing+pipelining", r.PipelinedNS, r.PipelinedPL)
	// Timeline of the pipelined schedule.
	p := jpm.NewPipeline(jpm.Pipelined)
	for _, ev := range p.Timeline() {
		if ev.Qubit <= 1 {
			fmt.Fprintf(&b, "  q%d %-7s %7.1f → %7.1f ns\n", ev.Qubit, ev.Stage, ev.Start*1e9, ev.End*1e9)
		}
	}
	r.Report = b.String()
	return r
}

// Fig16Result carries the Opt-#4/#5 power reductions.
type Fig16Result struct {
	BitgenReduction   float64 // of bitgen power (paper 98.2%)
	BitgenTotalSaving float64 // of 4K group power (paper 23.2%)
	BSReductionSaving float64 // of 4K group power (paper 43.8%)
	Report            string
}

// Fig16 reports the low-power bitstream generator and controller savings.
func Fig16() Fig16Result {
	d := sfq.MITLLSFQ5ee(sfq.RSFQ)
	s := sfq.DefaultDriveSpec()
	group := func(sp sfq.DriveSpec, lowBitgen bool) float64 {
		tot := sfq.ControlDataBuffer(sp).TotalPower(d, 24e9) +
			sfq.BitstreamController(sp).TotalPower(d, 24e9) +
			sfq.PerQubitController(sp).TotalPower(d, 24e9) +
			sfq.PulseCircuit(sp.Qubits, 4, 6).TotalPower(d, 24e9) +
			sfq.ReadoutFrontEnd(sp.Qubits).TotalPower(d, 24e9)
		if lowBitgen {
			tot += sfq.LowPowerBitstreamGenerator(sp).TotalPower(d, 24e9)
		} else {
			tot += sfq.BitstreamGenerator(sp).TotalPower(d, 24e9)
		}
		return tot
	}
	base := group(s, false)
	var r Fig16Result
	r.BitgenReduction = 1 - sfq.LowPowerBitstreamGenerator(s).TotalPower(d, 24e9)/sfq.BitstreamGenerator(s).TotalPower(d, 24e9)
	r.BitgenTotalSaving = 1 - group(s, true)/base
	s1 := s
	s1.BS = 1
	r.BSReductionSaving = 1 - group(s1, false)/base
	var b strings.Builder
	b.WriteString("== Fig. 16 — Opt-#4/#5 low-power bitgen and controllers ==\n")
	fmt.Fprintf(&b, "bitgen power reduction:        %5.1f%% (paper 98.2%%)\n", 100*r.BitgenReduction)
	fmt.Fprintf(&b, "4K saving from Opt-#4:         %5.1f%% (paper 23.2%%)\n", 100*r.BitgenTotalSaving)
	fmt.Fprintf(&b, "4K saving from Opt-#5 (#BS→1): %5.1f%% (paper 43.8%%)\n", 100*r.BSReductionSaving)
	r.Report = b.String()
	return r
}

// Fig17 reports the long-term scalability endpoints.
func Fig17() string {
	as := analyses("4K-CMOS-advanced", "4K-CMOS-advanced-opt6", "4K-CMOS-advanced-opt67", "RSFQ-opt345", "ERSFQ-opt8")
	return "== Fig. 17 — long-term scalability (advanced CMOS & ERSFQ) ==\n" + scalability.Table(as) +
		"paper: advanced CMOS 63,883 (Opt-6,7); ERSFQ 82,413 (Opt-8); goal 62,208\n"
}

// Fig18Result carries the Opt-#6 instruction-masking numbers.
type Fig18Result struct {
	WireShare      float64 // of advanced 4K power (paper 81.2%)
	BandwidthSaved float64 // paper 93%
	Report         string
}

// Fig18 reports the 4 K power breakdown and masking compression.
func Fig18() Fig18Result {
	adv := microarch.CMOS4KAdvanced()
	pb := adv.PerQubitPower()
	var r Fig18Result
	r.WireShare = pb.WireW / pb.StageW[wiring.Stage4K]
	round := adv.RoundTiming().RoundTime()
	base := isa.BaselineCMOSBandwidth(round)
	opt := isa.MaskedCMOSBandwidth(round, 32)
	r.BandwidthSaved = 1 - opt/base
	var b strings.Builder
	b.WriteString("== Fig. 18 — Opt-#6 FTQC-friendly instruction masking ==\n")
	fmt.Fprintf(&b, "advanced-CMOS 4K power: device %.3g W + wire %.3g W → wire share %.1f%% (paper 81.2%%)\n",
		pb.DeviceW, pb.WireW, 100*r.WireShare)
	fmt.Fprintf(&b, "instruction bandwidth: %.1f → %.1f Mb/s per qubit (−%.1f%%, paper −93%%)\n",
		base/1e6, opt/1e6, 100*r.BandwidthSaved)
	fmt.Fprintf(&b, "ISA: %v → %v\n", isa.HorseRidgeDrive(), isa.MaskedDrive(32))
	r.Report = b.String()
	return r
}

// Fig19Result carries the Opt-#7 readout-method comparison.
type Fig19Result struct {
	BinError, SingleError float64
	MultiRound            readout.MultiRoundResult
	Report                string
}

// Fig19 reports the decision-method errors and the multi-round speedup.
func Fig19() (Fig19Result, error) {
	c, tm := readout.DefaultChain(), readout.DefaultTiming()
	mr, err := readout.MultiRoundErrorCtx(context.Background(), c, tm, readout.DefaultMultiRoundConfig(), simrun.Options{})
	if err != nil {
		return Fig19Result{}, fmt.Errorf("experiments: fig19: %w", err)
	}
	r := Fig19Result{MultiRound: mr}
	r.BinError = readout.BinCountingError(c, tm, 8)
	r.SingleError = readout.SinglePointError(c, tm, 8)
	var b strings.Builder
	b.WriteString("== Fig. 19 — Opt-#7 fast multi-round readout ==\n")
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "method", "error", "readout")
	fmt.Fprintf(&b, "%-22s %12.3g %9.0f ns\n", "bin counting", r.BinError, tm.TotalTime(8)*1e9)
	fmt.Fprintf(&b, "%-22s %12.3g %9.0f ns\n", "single point", r.SingleError, tm.TotalTime(8)*1e9)
	fmt.Fprintf(&b, "%-22s %12.3g %9.0f ns (mean; %.1f%% faster, paper 40.9%%)\n",
		"multi-round (Opt-#7)", r.MultiRound.Error, r.MultiRound.MeanTime*1e9, 100*r.MultiRound.Speedup)
	fmt.Fprintf(&b, "3-round accuracy: %.2f%% within %.0f ns (paper: 98.6%% within 267 ns)\n",
		100*(1-readout.BinCountingError(c, tm, 3)), tm.TotalTime(3)*1e9)
	r.Report = b.String()
	return r, nil
}

// Fig20Result carries the Opt-#8 fast-driving numbers.
type Fig20Result struct {
	SlowDriveNS, FastDriveNS float64
	ReadoutNS                float64
	ErrorReduction           float64 // vs pipelined (paper 28,355x)
	MaxQubits                float64
	Report                   string
}

// Fig20 reports fast resonator driving, unsharing, and the resulting scale.
func Fig20() Fig20Result {
	m := jpm.DefaultResonatorDriveModel()
	var r Fig20Result
	r.SlowDriveNS = m.BaselineDriveTime() * 1e9
	r.FastDriveNS = m.FastDriveTime() * 1e9
	p := jpm.NewPipeline(jpm.Unshared)
	p.FastDriving = true
	r.ReadoutNS = p.TotalLatency() * 1e9
	r.ErrorReduction = microarch.RSFQOpt345().LogicalError(0) / microarch.ERSFQOpt8().LogicalError(0)
	a := analyses("ERSFQ-opt8")[0]
	r.MaxQubits = a.MaxQubits
	var b strings.Builder
	b.WriteString("== Fig. 20 — Opt-#8 fast resonator driving & unsharing ==\n")
	fmt.Fprintf(&b, "resonator driving: %.1f → %.1f ns (paper 578.2 → 230.9 ns); rate boost %.2fx\n",
		r.SlowDriveNS, r.FastDriveNS, m.RateBoost())
	fmt.Fprintf(&b, "unshared fast readout: %.1f ns (paper 317.7 ns)\n", r.ReadoutNS)
	fmt.Fprintf(&b, "logical error reduction vs pipelined: %.0fx (paper 28,355x)\n", r.ErrorReduction)
	fmt.Fprintf(&b, "ERSFQ supported qubits: %.0f (paper 82,413)\n", r.MaxQubits)
	r.Report = b.String()
	return r
}

// Section73 reports the 70 K-stage extension: offloading the analog
// front-ends to the 30 W stage, the future direction the paper's discussion
// names ("QIsim does not yet support temperature domains with higher power
// budgets (e.g., 30W at 70K) at which we may further improve scalability by
// moving power-hungry components").
func Section73() string {
	base := scalability.Analyze(microarch.CMOS4KOpt12(), scalability.DefaultOptions())
	ext := scalability.Analyze(microarch.CMOS4KOpt12With70K(), scalability.ExtendedOptions())
	var b strings.Builder
	b.WriteString("== Section 7.3 extension — analog offloading to the 30 W 70 K stage ==\n")
	fmt.Fprintf(&b, "%-24s %12s %12s %12s %-12s\n", "design", "4K W/qubit", "70K W/qubit", "max qubits", "binding")
	fmt.Fprintf(&b, "%-24s %12.3g %12s %12.0f %-12s\n",
		base.Design.Name, base.PerQubit[wiring.Stage4K], "—", base.MaxQubits, base.Binding)
	fmt.Fprintf(&b, "%-24s %12.3g %12.3g %12.0f %-12s\n",
		ext.Design.Name, ext.PerQubit[wiring.Stage4K], ext.PerQubit[wiring.Stage70K], ext.MaxQubits, ext.Binding)
	fmt.Fprintf(&b, "offloading lifts the near-term design %.0f → %.0f qubits (+%.0f%%)\n",
		base.MaxQubits, ext.MaxQubits, 100*(ext.MaxQubits/base.MaxQubits-1))
	return b.String()
}

// Table3 prints the technology-maturity matrix (documentation).
func Table3() string {
	rows := []struct{ gate, c300, c4k, sfq4k, cable, ustrip, photonic string }{
		{"1Q gate", "E", "D", "D", "E", "C", "D"},
		{"2Q gate (CZ)", "E", "C", "C", "E", "C", "A"},
		{"Readout", "E", "C", "A", "E", "C", "D"},
	}
	var b strings.Builder
	b.WriteString("== Table 3 — maturity of QCI technologies ==\n")
	fmt.Fprintf(&b, "%-14s %10s %8s %7s %11s %10s %9s\n", "gate type", "300K CMOS", "4K CMOS", "4K SFQ", "300K cable", "4K µstrip", "photonic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10s %8s %7s %11s %10s %9s\n", r.gate, r.c300, r.c4k, r.sfq4k, r.cable, r.ustrip, r.photonic)
	}
	b.WriteString("A: no full approach / B: theoretical / C: circuit-level / D: qubit demo / E: >50-qubit system\n")
	return b.String()
}

// Headline is a compact machine-checkable summary of the reproduction.
type Headline struct {
	Name  string
	Ours  float64
	Paper float64
}

// Headlines returns the reproduction scorecard (ours vs paper).
func Headlines() []Headline {
	get := func(name string) float64 { return analyses(name)[0].MaxQubits }
	f15 := Fig15()
	f20 := Fig20()
	return []Headline{
		{"300K coax qubits", get("300K-coax"), 400},
		{"300K microstrip qubits", get("300K-microstrip"), 650},
		{"300K photonic qubits", get("300K-photonic"), 70},
		{"4K CMOS baseline qubits", get("4K-CMOS-baseline"), 700},
		{"4K CMOS Opt-1/2 qubits", get("4K-CMOS-opt12"), 1399},
		{"RSFQ baseline qubits", get("RSFQ-baseline"), 160},
		{"RSFQ Opt-3/4/5 qubits", get("RSFQ-opt345"), 1248},
		{"advanced CMOS qubits", get("4K-CMOS-advanced-opt67"), 63883},
		{"ERSFQ Opt-8 qubits", get("ERSFQ-opt8"), 82413},
		{"pipelined readout ns", f15.PipelinedNS, 1255},
		{"naive sharing ns", f15.NaiveNS, 5320},
		{"fast driving ns", f20.FastDriveNS, 230.9},
		{"Opt-8 error reduction", f20.ErrorReduction, 28355},
	}
}

// WorstHeadlineRatio returns the largest |ours/paper| deviation factor.
func WorstHeadlineRatio() float64 {
	worst := 1.0
	for _, h := range Headlines() {
		r := h.Ours / h.Paper
		if r < 1 {
			r = 1 / r
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}

// HeadlineTable renders the scorecard.
func HeadlineTable() string {
	var b strings.Builder
	b.WriteString("== Reproduction scorecard (ours vs paper) ==\n")
	fmt.Fprintf(&b, "%-28s %14s %14s %8s\n", "headline", "ours", "paper", "ratio")
	for _, h := range Headlines() {
		fmt.Fprintf(&b, "%-28s %14.4g %14.4g %8.2f\n", h.Name, h.Ours, h.Paper, h.Ours/h.Paper)
	}
	fmt.Fprintf(&b, "worst deviation factor: %.2fx\n", WorstHeadlineRatio())
	return b.String()
}

// Features prints the SupermarQ-style feature vectors of the Fig. 11 suite.
func Features() string {
	return "== SupermarQ feature vectors (12-qubit instances) ==\n" + workloads.FeatureTable(12)
}
