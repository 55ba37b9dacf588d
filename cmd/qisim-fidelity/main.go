// Command qisim-fidelity runs an OpenQASM 2 program through the full QIsim
// pipeline — parse → compile → cycle-accurate simulation → Pauli-channel
// fidelity — and reports timing, activity factors, and predicted fidelity
// (the estimated success probability, ESP).
//
// Usage:
//
//	qisim-fidelity [-machine ibm_mumbai] [-arch cmos|sfq] file.qasm
//	cat circuit.qasm | qisim-fidelity -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"qisim/internal/buildinfo"
	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/obs"
	"qisim/internal/pauli"
	"qisim/internal/qasm"
	"qisim/internal/simerr"
	"qisim/internal/validate"
)

// logger is the process-wide structured logger, installed before the pipeline
// runs so trace-export warnings honour -log-format.
var logger = obs.Discard()

// tracer/traceOut are set when -trace-out is given; fatalErr flushes the
// (possibly partial) trace before exiting so failed runs can be diagnosed.
var (
	tracer   *obs.Tracer
	traceOut string
)

// flushTrace writes the Chrome trace if one was recorded. An export failure
// is a warning only: the run's own result and exit code are never affected.
func flushTrace() {
	if tracer == nil {
		return
	}
	if err := obs.WriteChromeFile(traceOut, tracer); err != nil {
		logger.Warn("trace export failed; run result unaffected", "err", err, "path", traceOut)
	}
	tracer = nil // idempotent: deferred and fatal paths may both call
}

func main() {
	machine := flag.String("machine", "ibm_mumbai", "reference machine (see qisim-fidelity -list)")
	arch := flag.String("arch", "cmos", "QCI architecture: cmos or sfq")
	list := flag.Bool("list", false, "list reference machines")
	traceOutFlag := flag.String("trace-out", "", "record a span trace of the run and write it as Chrome trace_event JSON to this file")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("qisim-fidelity"))
		return
	}
	var lerr error
	logger, lerr = obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "qisim-fidelity:", lerr)
		os.Exit(simerr.ExitCode(simerr.Invalidf("%v", lerr)))
	}

	if *list {
		for _, m := range validate.Machines() {
			fmt.Printf("%-16s 1Q %.3g  2Q %.3g  RO %.3g  T1 %.0fµs  T2 %.0fµs\n",
				m.Name, m.Rates.OneQ, m.Rates.TwoQ, m.Rates.Readout, m.Rates.T1*1e6, m.Rates.T2*1e6)
		}
		return
	}
	if flag.NArg() != 1 {
		fatal("expected exactly one QASM file (or - for stdin)")
	}

	// -trace-out arms the tracer for the whole pipeline; a root "cli" span
	// covers parse → compile → simulate. The trace flushes even on a fatal
	// exit (partial traces are how failed runs get diagnosed).
	ctx := context.Background()
	if *traceOutFlag != "" {
		traceOut = *traceOutFlag
		tracer = obs.NewTracer(obs.TracerConfig{ID: "qisim-fidelity"})
		ctx = obs.WithTracer(ctx, tracer)
		root := tracer.Start("cli", nil, obs.String("cmd", "fidelity"))
		ctx = obs.ContextWithSpan(ctx, tracer, root)
		defer func() { root.End(); flushTrace() }()
	}

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatalErr(err)
	}
	_, parseSpan := obs.StartSpan(ctx, "qasm.parse")
	prog, err := qasm.Parse(src)
	parseSpan.End()
	if err != nil {
		fatalErr(err) // unsupported/malformed QASM exits with code 7
	}

	var rates pauli.ErrorRates
	found := false
	for _, m := range validate.Machines() {
		if m.Name == *machine {
			rates, found = m.Rates, true
		}
	}
	if !found {
		fatal(fmt.Sprintf("unknown machine %q (use -list)", *machine))
	}

	_, compileSpan := obs.StartSpan(ctx, "compile")
	ex, err := compile.Compile(prog, compile.DefaultOptions())
	compileSpan.End()
	if err != nil {
		fatalErr(err)
	}
	var cfg cyclesim.Config
	switch *arch {
	case "cmos":
		cfg = cyclesim.CMOSConfig()
	case "sfq":
		cfg = cyclesim.SFQConfig(1)
	default:
		fatal("arch must be cmos or sfq")
	}
	_, simSpan := obs.StartSpan(ctx, "cyclesim.run", obs.String("arch", *arch))
	res, err := cyclesim.Run(ex, cfg)
	simSpan.End()
	if err != nil {
		fatalErr(err)
	}

	fmt.Printf("qubits:        %d\n", prog.NQubits)
	fmt.Printf("gates:         %d (1Q %d, 2Q %d, measure %d)\n",
		ex.NumOneQ+ex.NumTwoQ+ex.NumMeasure, ex.NumOneQ, ex.NumTwoQ, ex.NumMeasure)
	fmt.Printf("makespan:      %.1f ns\n", res.TotalTime*1e9)
	fmt.Printf("drive duty:    %.3f   pulse duty: %.3f   readout duty: %.3f\n",
		res.ActivityFactor("drive"), res.ActivityFactor("pulse"), res.ActivityFactor("readout"))
	fmt.Printf("fidelity:      %.4f  (%s, ESP)\n", pauli.ESP(res, pauli.DefaultConfig(rates)), *machine)
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(msg string) {
	flushTrace()
	fmt.Fprintln(os.Stderr, "qisim-fidelity:", msg)
	os.Exit(1)
}

// fatalErr exits with the per-class code of the simerr contract (7 for
// unsupported QASM, 4 for invalid configuration, ...). The partial trace is
// flushed first — os.Exit skips the deferred export in main.
func fatalErr(err error) {
	flushTrace()
	fmt.Fprintln(os.Stderr, "qisim-fidelity:", err)
	os.Exit(simerr.ExitCode(err))
}
