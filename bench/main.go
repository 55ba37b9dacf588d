// Command bench is the repository benchmark. One invocation runs one
// workload in its own process and prints a full JSON report (every metric
// with its unit and sample count, the host, and the output checks) followed,
// on the last line, by the summary object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh compare <a.json...> -- <b.json...>
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, and a Chrome trace of the
// benchmark's own spans is written (see README.md). The process exits
// non-zero when any output check fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"qisim/internal/obs"
)

// workload is one set of inputs the benchmark drives through the program.
type workload interface {
	// setup generates the inputs, brings up servers and workers, and runs
	// one untimed warm-up operation.
	setup(ctx context.Context) error
	// measure runs the closed loop until the deadline, reporting every
	// operation to run.op. With traced set it also records the per-layer
	// data that finish reports.
	measure(ctx context.Context, deadline time.Time, traced bool) error
	// finish runs the end-of-run output checks and, when the run was
	// traced, records the per-layer metrics.
	finish(ctx context.Context, traced bool) error
	// close releases servers, workers and scratch data.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"reproduce", "mc-decode", "mc-fine-shards", "service", "fleet"}

func newWorkload(name string, r *run) (workload, error) {
	switch name {
	case "reproduce":
		return newReproduce(r), nil
	case "mc-decode":
		return newMCDecode(r), nil
	case "mc-fine-shards":
		return newMCFineShards(r), nil
	case "service":
		return newHTTP(r, false), nil
	case "fleet":
		return newHTTP(r, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// config is one invocation's settings.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`

	traceOut  string
	setupOnly bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// check is one output check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// maxFailureDetails bounds the failed checks kept in the report.
const maxFailureDetails = 20

// run collects one invocation's results. Its methods are safe for
// concurrent use.
type run struct {
	cfg    config
	tracer *obs.Tracer // nil unless the run is traced

	mu        sync.Mutex
	metrics   map[string]metric
	checks    []check
	attempted int
	failed    int
	ops       []opRecord  // completed operations, in order
	refs      []refSample // reference kernel timings, in order
	opRSS     []float64   // peak resident MiB during each operation
}

// put records a metric.
func (r *run) put(name, unit string, value float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// op counts one attempted operation that just ended after taking d; a
// non-nil err marks it failed. It records the operation's peak resident set
// and restarts the peak for the next one, then times the reference kernel
// if none was timed in the last refEvery.
func (r *run) op(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= maxFailureDetails {
			r.checks = append(r.checks, check{Name: "op", Detail: err.Error()})
		}
	} else {
		r.ops = append(r.ops, opRecord{end: time.Now(), d: d})
		r.opRSS = append(r.opRSS, peakRSSMiB())
	}
	resetPeakRSS()
	r.refPauseLocked()
}

// refPause times the reference kernel between two steps of an operation if
// none was timed in the last refEvery, and returns how long that took: time
// the operation leaves out of its latency.
func (r *run) refPause() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refPauseLocked()
}

func (r *run) refPauseLocked() time.Duration {
	if n := len(r.refs); n > 0 && time.Since(r.refs[n-1].at) < refEvery {
		return 0
	}
	t0 := time.Now()
	r.refs = append(r.refs, takeRefSample())
	return time.Since(t0)
}

// sampleRef times the reference kernel now.
func (r *run) sampleRef() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs = append(r.refs, takeRefSample())
}

// check records an end-of-run output check; it counts as one attempt.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// span starts a benchmark span (nil, and free, on untraced runs).
func (r *run) span(name string, parent *obs.Span, attrs ...obs.Attr) *obs.Span {
	if r.tracer == nil {
		return nil
	}
	return r.tracer.Start(name, parent, attrs...)
}

// report is the full result document.
type report struct {
	config
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueMetric `json:"metrics"`
}

type valueMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	start := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv("BENCH_T0_NS"), 10, 64); err == nil {
		start = time.Unix(0, ns)
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if cfg.setupOnly {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := setupOnly(ctx, cfg)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	def, err := loadDefinition()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	declared := def.declared(cfg.Trace)
	// A run that is still going two minutes after its measured loop should
	// have ended has hung: give up rather than wait for it.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(cfg.Seconds*float64(time.Second))+2*time.Minute)
	rep, err := execute(ctx, cfg, start, declared)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, rep, declared); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "how long the measured loop runs")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	fs.BoolVar(&cfg.Quick, "quick", false, "smoke run: small inputs, one set-up sample")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print \"ready\" and exit (used to sample set-up time)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.Trace = trace == 1
	if cfg.Seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %g", cfg.Seconds)
	}
	if cfg.Trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
	}
	if !slices.Contains(workloadNames, cfg.Workload) {
		return cfg, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	return cfg, nil
}

// buildDir holds build output and the runs' scratch data, relative to the
// directory the benchmark runs in.
const buildDir = ".bench_build"

// execute runs one workload: set-up, the measured loop (untraced, or a short
// untraced phase followed by the traced phase), the output checks and the
// set-up samples. start is when the process was launched. Every declared
// metric must be measured, except that a per-layer metric of a layer the
// workload does not exercise reads 0 with no samples.
func execute(ctx context.Context, cfg config, start time.Time, declared []metricDef) (*report, error) {
	r := &run{cfg: cfg, metrics: map[string]metric{}}
	if cfg.Trace {
		r.tracer = obs.NewTracer(obs.TracerConfig{ID: "bench-" + cfg.Workload, MaxSpans: 1 << 17})
	}
	w, err := newWorkload(cfg.Workload, r)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
	}
	setups := []opRecord{{end: time.Now(), d: time.Since(start)}}
	r.sampleRef()
	resetPeakRSS()

	total := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		// A short untraced phase first gives the baseline the tracing
		// overhead is measured against.
		if err := w.measure(ctx, time.Now().Add(total/4), false); err != nil {
			return nil, err
		}
		nPlain := len(r.ops)
		if err := w.measure(ctx, time.Now().Add(total-total/4), true); err != nil {
			return nil, err
		}
		r.sampleRef()
		plain, traced := scaledMS(r.ops[:nPlain], r.refs), scaledMS(r.ops[nPlain:], r.refs)
		if len(plain) > 0 && len(traced) > 0 {
			r.put("bench.trace_overhead_share", "ratio", median(traced)/median(plain)-1, len(traced))
		}
		if err := w.finish(ctx, true); err != nil {
			return nil, err
		}
	} else {
		t0 := time.Now()
		if err := w.measure(ctx, t0.Add(total), false); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		r.sampleRef()
		n := len(r.ops)
		if n == 0 {
			return nil, fmt.Errorf("%s: no operation completed in %v", cfg.Workload, total)
		}
		raw, scaled := rawMS(r.ops), scaledMS(r.ops, r.refs)
		// The run's wall clock at the reference speed: scaled by the
		// operations' summed scaled ÷ raw time.
		refWall := wall.Seconds() * sum(scaled) / sum(raw)
		r.put("op_p50_ms", "ms", median(scaled), n)
		r.put("ops_per_s", "1/s", float64(n)/refWall, n)
		r.put("raw.op_p50_ms", "ms", median(raw), n)
		r.put("raw.ops_per_s", "1/s", float64(n)/wall.Seconds(), n)
		if p95, err := percentile(scaled, 95); err == nil {
			r.put("op_p95_ms", "ms", p95, n)
		}
		if err := w.finish(ctx, false); err != nil {
			return nil, err
		}
		r.put("peak_rss_mb", "MiB", median(r.opRSS), len(r.opRSS))
		r.put("raw.peak_rss_mb", "MiB", slices.Max(r.opRSS), len(r.opRSS))
	}
	w.close()

	if !cfg.Trace {
		// More cold starts for a cheap set-up: a 40 ms set-up varies by
		// more than its median moves. Each is timed between two reference
		// samples, like an operation.
		for elapsed := setups[0].d; !cfg.Quick && (len(setups) < 3 || elapsed < 2*time.Second && len(setups) < 15); {
			d, err := sampleSetup(ctx, cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, opRecord{end: time.Now(), d: d})
			elapsed += d
			r.sampleRef()
		}
		raw := rawMS(setups)
		r.put("setup_s", "s", median(scaledMS(setups, r.refs))/1e3, len(setups))
		r.put("raw.setup_s", "s", median(raw)/1e3, len(setups))
	}
	refMS := make([]float64, len(r.refs))
	for i, s := range r.refs {
		refMS[i] = s.ms
	}
	r.put("ref_sample_ms", "ms", median(refMS), len(refMS))

	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok && cfg.Trace:
			r.metrics[d.Name] = metric{Unit: d.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
	}
	rep := &report{
		config:    cfg,
		Host:      probeHost(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.failed == 0,
		Checks:    append([]check{}, r.checks...),
		Metrics:   r.metrics,
	}
	rep.Metrics["fail_ratio"] = metric{Value: float64(r.failed) / float64(max(r.attempted, 1)), Unit: "ratio", N: r.attempted}
	if r.tracer != nil {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := obs.WriteChromeFile(cfg.traceOut, r.tracer); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.TraceFile = cfg.traceOut
	}
	return rep, nil
}

// setupOnly is the child side of sampleSetup.
func setupOnly(ctx context.Context, cfg config) error {
	w, err := newWorkload(cfg.Workload, &run{cfg: cfg, metrics: map[string]metric{}})
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return err
	}
	_, err = fmt.Println("ready")
	return err
}

// sampleSetup launches this binary in set-up-only mode and returns the time
// from launch until it reports ready: a cold set-up including process start.
func sampleSetup(ctx context.Context, cfg config) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-workload", cfg.Workload,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(t0)
	io.Copy(io.Discard, out) //nolint:errcheck // drain so the child can exit
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up sample: child did not report ready (%v)", errors.Join(rerr, werr))
	}
	if werr != nil {
		return 0, fmt.Errorf("set-up sample: %w", werr)
	}
	return elapsed, nil
}

// writeReport prints the full report, then the summary line with the
// declared metrics.
func writeReport(w io.Writer, rep *report, declared []metricDef) error {
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	sum := summary{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]valueMetric{}}
	for _, d := range declared {
		m := rep.Metrics[d.Name]
		sum.Metrics[d.Name] = valueMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", body, line)
	return err
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set. Where that is not possible the peak keeps running
// from process start.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
