// Request parsing, normalization, cache keying and per-kind executors.
//
// The normalization contract behind the cache key (see DESIGN.md "Cache
// keying"):
//
//  1. params JSON is decoded strictly (unknown fields rejected) into a typed
//     struct — incoming field ORDER therefore cannot matter;
//  2. defaults are applied BEFORE keying, so an omitted option and its
//     explicit default value key identically;
//  3. the worker count is stripped — the deterministic sharded engine makes
//     the result bit-identical for every worker count, so it must not
//     fragment the cache;
//  4. seed and shard size ARE part of the key — they fix the RNG stream
//     layout, so different values genuinely produce different bytes.
package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"strings"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/pauli"
	"qisim/internal/qasm"
	"qisim/internal/readout"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/validate"
)

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params"`
	// TimeoutMS, when positive, bounds this run's wall clock. The deadline
	// rides the job context, so on a coordinator it propagates into every
	// lease grant and fleet workers stop at the same wall-clock fence.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// withTimeout bounds a runner's wall clock. Hitting the deadline truncates
// the run at the last committed shard exactly like a cancellation — the
// engine's Stop* status machinery reports the reason.
func withTimeout(run jobs.Runner, d time.Duration) jobs.Runner {
	return func(ctx context.Context, progress func(completed, requested int)) ([]byte, simrun.Status, error) {
		tctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return run(tctx, progress)
	}
}

// buildEnv carries the server-side execution environment into the per-kind
// builders: where checkpoints live and the observability hooks that count
// what the runners did. The zero value disables checkpointing (tests, and
// daemons running without -data-dir).
type buildEnv struct {
	// ckptDir is the crash-safe snapshot directory ("" = checkpointing off).
	ckptDir string
	// onSaves receives the number of snapshots a finished run wrote.
	onSaves func(n int)
	// onResume fires when a runner actually resumed from a snapshot instead
	// of starting cold.
	onResume func()
	// dist, when set, routes Monte-Carlo runs through the fleet
	// coordinator, which runs units on its local lane while no worker is
	// live.
	dist *dist.Coordinator
	// publish streams a custom event on a job's event log (nil = no-op).
	publish func(id, typ string, data any)
	// log is the job manager's logger: records made with a job's context
	// carry its job, trace and span IDs (nil = discard).
	log *slog.Logger
}

// runMC is the one runner every Monte-Carlo job executes through. Its
// checkpoint is attached once, before a lane is picked, so the job's
// snapshot is its only durable Monte-Carlo state on both lanes. On a
// coordinator the run is folded across the fleet; while no worker is live
// (a job recovered at boot, counted as a degraded run) its units run on
// the coordinator's local lane until one claims. A standalone server runs
// the same core in-process through Core.RunFull. Both lanes end the run in
// one simrun.Fold over the core's merge, which drives the hooks and the
// stop, and finish through the core's finish, so their bytes are identical
// and a snapshot written by either lane resumes on either. The core is
// built here rather than at submit, so a bad model parameter fails the job
// at run time.
func (env buildEnv) runMC(j mcJob) jobs.Runner {
	return func(ctx context.Context, progress func(int, int)) (body []byte, st simrun.Status, err error) {
		opt := simrun.Options{Workers: j.workers, Progress: progress}
		sv, err := env.attachCheckpoint(ctx, &opt, checkpoint.Meta{
			Kind: string(j.kind), Key: string(j.key), Seed: j.plan.Seed, ShardSize: j.plan.ShardSize,
			Budget: j.plan.Shots, TargetRelStdErr: j.plan.TargetRelStdErr,
		})
		if err != nil {
			return nil, simrun.Status{}, err
		}
		defer func() { env.finishCheckpoint(ctx, sv, err == nil && !st.Truncated) }()
		core, err := j.newCore(opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		if env.dist != nil {
			raw, merr := json.Marshal(j.params)
			if merr != nil {
				return nil, simrun.Status{}, simerr.Invalidf("service: marshal dist params: %v", merr)
			}
			return env.dist.Execute(ctx, string(j.kind), string(j.key), raw, core, j.plan)
		}
		return core.RunFull(ctx, j.plan)
	}
}

// attachCheckpoint wires crash-safe checkpointing into a runner's engine
// options (no-op without a checkpoint dir). Resume is always attempted: a
// missing snapshot starts cold, a snapshot from an interrupted earlier life
// (or an interrupted earlier submission of the same request) continues from
// the committed prefix — the deterministic engine makes the final bytes
// identical either way. A corrupted or mismatched snapshot is a typed
// runtime error on the job, never a silent replay.
func (env buildEnv) attachCheckpoint(ctx context.Context, opt *simrun.Options, meta checkpoint.Meta) (*checkpoint.Saver, error) {
	if env.ckptDir == "" {
		return nil, nil
	}
	_, span := obs.StartSpan(ctx, "checkpoint.load")
	sv, snap, err := checkpoint.Attach(opt, env.ckptDir, true, 1, meta)
	if err != nil {
		span.SetAttr(obs.String("error", simerr.Class(err)))
		span.End()
		return nil, err
	}
	span.SetAttr(obs.Bool("resumed", snap != nil))
	span.End()
	if snap != nil && env.onResume != nil {
		env.onResume()
	}
	return sv, nil
}

// finishCheckpoint runs on every return of a Monte-Carlo runner: it
// reports snapshot-write counts, warns through the job's logger when a
// write failed (durability degraded, the result still valid), and retires
// the snapshot of a complete run — the result is cached now, so the
// checkpoint has nothing left to protect. Truncated and failed runs keep
// theirs: it is the resume point for the journal-driven retry or a
// resubmission.
func (env buildEnv) finishCheckpoint(ctx context.Context, sv *checkpoint.Saver, complete bool) {
	if sv == nil {
		return
	}
	if env.onSaves != nil {
		env.onSaves(sv.Saves())
	}
	if err := sv.Err(); err != nil {
		obs.OrDiscard(env.log).WarnContext(ctx, "checkpoint durability degraded", "path", sv.Path, "err", err)
	}
	if complete {
		os.Remove(sv.Path) //nolint:errcheck // best-effort cleanup
	}
}

// buildJob validates and normalizes one request, returning its kind, cache
// key and executor. All *configuration* errors surface here (mapped to HTTP
// status codes by the caller); *runtime* errors surface on the job record.
func buildJob(req jobRequest, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	kind := jobs.Kind(req.Kind)
	if !kind.Valid() {
		return "", "", nil, simerr.Invalidf("service: unknown job kind %q (kinds: %v)", req.Kind, jobs.Kinds())
	}
	if parse, ok := mcKinds[kind]; ok {
		j, err := parse(req.Params)
		if err != nil {
			return "", "", nil, err
		}
		return kind, j.key, env.runMC(j), nil
	}
	switch kind {
	case jobs.KindPauliMC:
		return buildPauliMC(req.Params)
	case jobs.KindScalabilityAnalyze:
		return buildScalabilityAnalyze(req.Params)
	case jobs.KindDSEPoint:
		return buildDSEPoint(req.Params)
	case jobs.KindDSESweep:
		return buildDSESweep(req.Params, env)
	default:
		return buildScalabilitySweep(req.Params)
	}
}

// decodeParams strictly decodes raw params into dst (nil/empty raw = all
// defaults). Unknown fields are configuration errors so a typo'd option can
// never silently fall back to a default.
func decodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return simerr.Invalidf("service: bad params: %v", err)
	}
	return nil
}

// keyedParams projects normalized params into the canonical key/body form:
// the worker count is removed (execution hint — does not change the result
// bytes), everything else is kept.
func keyedParams(params any) (map[string]any, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, simerr.Invalidf("service: marshal params: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, simerr.Invalidf("service: reparse params: %v", err)
	}
	delete(m, "workers")
	return m, nil
}

// requestKey derives the content address of a normalized request.
func requestKey(kind jobs.Kind, params any, seed int64, shardSize int) (rescache.Key, map[string]any, error) {
	m, err := keyedParams(params)
	if err != nil {
		return "", nil, err
	}
	// seed and shard_size live in the envelope, not the params object.
	delete(m, "seed")
	delete(m, "shard_size")
	key, err := rescache.KeyFor(string(kind), m, seed, shardSize)
	if err != nil {
		return "", nil, simerr.Invalidf("service: key request: %v", err)
	}
	return key, m, nil
}

// resultEnvelope is the stored/streamed result body: self-describing
// (kind + the exact normalized request that produced it) and byte-
// deterministic — encoding/json sorts all map keys, and the embedded result
// structs marshal deterministically.
type resultEnvelope struct {
	Kind      string         `json:"kind"`
	Key       rescache.Key   `json:"key"`
	Params    map[string]any `json:"params"`
	Seed      int64          `json:"seed"`
	ShardSize int            `json:"shard_size,omitempty"`
	Result    any            `json:"result"`
}

func marshalEnvelope(kind jobs.Kind, key rescache.Key, params map[string]any, seed int64, shardSize int, result any) ([]byte, error) {
	body, err := json.Marshal(resultEnvelope{
		Kind: string(kind), Key: key, Params: params, Seed: seed, ShardSize: shardSize, Result: result,
	})
	if err != nil {
		return nil, simerr.Numericalf("service: marshal result: %v", err)
	}
	return body, nil
}

// closedForm is the runner of a one-step analytic job: it evaluates once
// and stores the result under seed 0 and no shard size. A job canceled
// before it starts (a DELETE, a drain) finalizes as a Truncated partial
// instead of computing and caching under a dead context.
func closedForm(kind jobs.Kind, key rescache.Key, keyed map[string]any, eval func() (any, error)) jobs.Runner {
	return func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		if ctx.Err() != nil {
			return nil, simrun.Status{Requested: 1, Truncated: true, StopReason: simrun.StopCanceled}, nil
		}
		result, err := eval()
		if err != nil {
			return nil, simrun.Status{}, err
		}
		progress(1, 1)
		st := simrun.Status{Requested: 1, Completed: 1, StopReason: simrun.StopCompleted}
		body, err := marshalEnvelope(kind, key, keyed, 0, 0, result)
		return body, st, err
	}
}

// ---- Monte-Carlo kinds: one parser each, one runner (runMC) for all ----

// mcJob is one normalized Monte-Carlo request: what the submitting server,
// and a fleet worker rebuilding the core from a lease grant, both derive
// from the raw params.
type mcJob struct {
	kind jobs.Kind
	key  rescache.Key
	// keyed is the canonical params form recorded in the result envelope.
	keyed map[string]any
	// params is the normalized request, granted to fleet workers as is.
	params  any
	workers int
	plan    dist.Plan
	// newCore builds the kind's execution core over the given engine
	// options (RunFull's checkpoint and progress hooks ride in them).
	newCore func(opt simrun.Options) (dist.Core, error)
}

// mcKinds maps each Monte-Carlo kind to its params parser.
var mcKinds = map[jobs.Kind]func(json.RawMessage) (mcJob, error){
	jobs.KindSurfaceMC: parseSurfaceMC,
	jobs.KindReadoutMC: parseReadoutMC,
}

// newMCJob keys normalized params and fixes the run's shard plan.
func newMCJob(kind jobs.Kind, params any, workers int, plan dist.Plan) (mcJob, error) {
	key, keyed, err := requestKey(kind, params, plan.Seed, plan.ShardSize)
	if err != nil {
		return mcJob{}, err
	}
	return mcJob{kind: kind, key: key, keyed: keyed, params: params, workers: workers, plan: plan}, nil
}

// envelope marshals a finished result into the job's result envelope.
func (j mcJob) envelope(result any) ([]byte, error) {
	return marshalEnvelope(j.kind, j.key, j.keyed, j.plan.Seed, j.plan.ShardSize, result)
}

// ---- surface.mc: phenomenological surface-code Monte-Carlo decoder ----

type surfaceMCParams struct {
	Distance  int      `json:"distance"`
	P         *float64 `json:"p"`
	Q         *float64 `json:"q"`
	Rounds    int      `json:"rounds"`
	Shots     int      `json:"shots"`
	Seed      int64    `json:"seed"`
	RelSE     float64  `json:"rel_se"`
	ShardSize int      `json:"shard_size"`
	Workers   int      `json:"workers,omitempty"`
}

// parseSurfaceMC decodes and defaults surface.mc params.
func parseSurfaceMC(raw json.RawMessage) (mcJob, error) {
	var p surfaceMCParams
	if err := decodeParams(raw, &p); err != nil {
		return mcJob{}, err
	}
	// Defaults mirror `qisim mc` (zero seed means "the default seed").
	if p.Distance == 0 {
		p.Distance = 11
	}
	if p.P == nil {
		p.P = f64(0.005)
	}
	if p.Q == nil {
		p.Q = f64(0.005)
	}
	if p.Rounds == 0 {
		p.Rounds = p.Distance
	}
	if p.Shots == 0 {
		p.Shots = 200000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ShardSize == 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	j, err := newMCJob(jobs.KindSurfaceMC, p, p.Workers,
		dist.Plan{Shots: p.Shots, Seed: p.Seed, ShardSize: p.ShardSize, TargetRelStdErr: p.RelSE})
	if err != nil {
		return mcJob{}, err
	}
	j.newCore = func(opt simrun.Options) (dist.Core, error) {
		run, merge, err := surface.PhenomenologicalCore(p.Distance, *p.P, *p.Q, p.Rounds)
		if err != nil {
			return nil, err
		}
		return dist.NewCore(dist.CoreSpec[int]{Run: run, Merge: merge, Options: opt,
			Finish: func(failures int, st simrun.Status) ([]byte, error) {
				res := surface.DecoderResultFrom(failures, st)
				return j.envelope(struct {
					surface.DecoderResult
					Rate float64 `json:"logical_error_rate"`
				}{res, res.Rate()})
			}}), nil
	}
	return j, nil
}

// ---- pauli.mc: QASM → compile → cycle sim → estimated success probability ----

type pauliMCParams struct {
	QASM     string  `json:"qasm"`
	Machine  string  `json:"machine"`
	Arch     string  `json:"arch"`
	PeriodNS float64 `json:"period_ns"`
}

// buildPauliMC decodes and defaults pauli.mc params, resolves the machine's
// error rates and compiles the program, so malformed requests surface as
// typed configuration errors before a queue slot is spent. The job is
// closed form: it simulates the program's timing and reports its ESP.
func buildPauliMC(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	var p pauliMCParams
	if err := decodeParams(raw, &p); err != nil {
		return "", "", nil, err
	}
	if p.QASM == "" {
		return "", "", nil, simerr.Invalidf("service: pauli.mc needs a qasm program")
	}
	if p.Machine == "" {
		p.Machine = "ibm_mumbai"
	}
	if p.Arch == "" {
		p.Arch = "cmos"
	}
	if p.Arch != "cmos" && p.Arch != "sfq" {
		return "", "", nil, simerr.Invalidf("service: arch must be cmos or sfq, got %q", p.Arch)
	}
	if p.PeriodNS == 0 {
		p.PeriodNS = 100
	}
	if p.PeriodNS < 0 {
		return "", "", nil, simerr.Invalidf("service: period_ns must be positive, got %v", p.PeriodNS)
	}
	var rates pauli.ErrorRates
	found := false
	for _, m := range validate.Machines() {
		if m.Name == p.Machine {
			rates, found = m.Rates, true
			break
		}
	}
	if !found {
		return "", "", nil, simerr.Invalidf("service: unknown machine %q", p.Machine)
	}
	prog, err := qasm.Parse(p.QASM)
	if err != nil {
		return "", "", nil, err
	}
	ex, err := compile.Compile(prog, compile.DefaultOptions())
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindPauliMC, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	return jobs.KindPauliMC, key, closedForm(jobs.KindPauliMC, key, keyed, func() (any, error) {
		simCfg := cyclesim.CMOSConfig()
		if p.Arch == "sfq" {
			simCfg = cyclesim.SFQConfig(1)
		}
		res, err := cyclesim.Run(ex, simCfg)
		if err != nil {
			return nil, err
		}
		cfg := pauli.DefaultConfig(rates)
		// Division rounds once, so the default 100 ns is DefaultConfig's
		// 100e-9 to the bit (p.PeriodNS*1e-9 is 1.0000000000000001e-07).
		cfg.DecoherencePeriod = p.PeriodNS / 1e9
		return struct {
			ESP        float64 `json:"esp"`
			MakespanNS float64 `json:"makespan_ns"`
		}{pauli.ESP(res, cfg), res.TotalTime * 1e9}, nil
	}), nil
}

// ---- readout.mc: multi-round early-decision readout Monte-Carlo ----

type readoutMCParams struct {
	Range     *float64 `json:"range"`
	MaxRounds int      `json:"max_rounds"`
	Shots     int      `json:"shots"`
	Seed      int64    `json:"seed"`
	RelSE     float64  `json:"rel_se"`
	ShardSize int      `json:"shard_size"`
	Workers   int      `json:"workers,omitempty"`
}

// parseReadoutMC decodes and defaults readout.mc params.
func parseReadoutMC(raw json.RawMessage) (mcJob, error) {
	var p readoutMCParams
	if err := decodeParams(raw, &p); err != nil {
		return mcJob{}, err
	}
	def := readout.DefaultMultiRoundConfig()
	if p.Range == nil {
		p.Range = f64(def.Range) // explicit 0 is a meaningful (degenerate) range
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = def.MaxRounds
	}
	if p.Shots == 0 {
		p.Shots = def.Shots
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	if p.ShardSize == 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	j, err := newMCJob(jobs.KindReadoutMC, p, p.Workers,
		dist.Plan{Shots: p.Shots, Seed: p.Seed, ShardSize: p.ShardSize, TargetRelStdErr: p.RelSE})
	if err != nil {
		return mcJob{}, err
	}
	j.newCore = func(opt simrun.Options) (dist.Core, error) {
		timing := readout.DefaultTiming()
		_, run, merge, err := readout.MultiRoundCore(readout.DefaultChain(), timing, readout.MultiRoundConfig{
			Range: *p.Range, MaxRounds: p.MaxRounds, Shots: p.Shots, Seed: p.Seed,
		})
		if err != nil {
			return nil, err
		}
		return dist.NewCore(dist.CoreSpec[readout.MultiRoundTally]{Run: run, Merge: merge, Options: opt,
			Finish: func(sum readout.MultiRoundTally, st simrun.Status) ([]byte, error) {
				return j.envelope(readout.MultiRoundResultFrom(timing, sum, st))
			}}), nil
	}
	return j, nil
}

// ---- scalability.analyze: design-point scalability verdicts ----

type scalabilityAnalyzeParams struct {
	Designs  []string `json:"designs"`
	Distance int      `json:"distance"`
	Extended bool     `json:"extended"`
	Workers  int      `json:"workers,omitempty"`
}

func buildScalabilityAnalyze(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	var p scalabilityAnalyzeParams
	if err := decodeParams(raw, &p); err != nil {
		return "", "", nil, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	for _, name := range p.Designs {
		if _, ok := microarch.DesignByName(name); !ok {
			return "", "", nil, simerr.Invalidf("service: unknown design %q", name)
		}
	}
	// Analyses are deterministic and seedless: seed 0 / shard 0 in the key.
	key, keyed, err := requestKey(jobs.KindScalabilityAnalyze, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		opt := scalability.OptionsFor(pp.Distance, pp.Extended)
		opt.Workers = pp.Workers
		opt.Progress = progress
		var as []scalability.Analysis
		var status simrun.Status
		if len(pp.Designs) == 0 {
			var err error
			as, status, err = scalability.AnalyzeAllCtx(ctx, opt)
			if err != nil {
				return nil, simrun.Status{}, err
			}
		} else {
			status = simrun.Status{Requested: len(pp.Designs), StopReason: simrun.StopCompleted}
			for i, name := range pp.Designs {
				if cerr := ctx.Err(); cerr != nil {
					status.Truncated = true
					status.StopReason = simrun.StopCanceled
					break
				}
				d, _ := microarch.DesignByName(name)
				a, err := scalability.AnalyzeChecked(d, opt)
				if err != nil {
					return nil, simrun.Status{}, err
				}
				as = append(as, a)
				status.Completed = i + 1
				progress(i+1, len(pp.Designs))
			}
		}
		exported := make([]scalability.ExportedAnalysis, len(as))
		for i, a := range as {
			exported[i] = scalability.Export(a)
		}
		out := struct {
			Analyses []scalability.ExportedAnalysis `json:"analyses"`
			Status   simrun.Status                  `json:"status"`
		}{exported, status}
		body, err := marshalEnvelope(jobs.KindScalabilityAnalyze, key, keyed, 0, 0, out)
		return body, status, err
	}
	return jobs.KindScalabilityAnalyze, key, run, nil
}

// ---- scalability.sweep: qubit-count sweep of one design ----

type scalabilitySweepParams struct {
	Design      string `json:"design"`
	QubitCounts []int  `json:"qubit_counts"`
	Distance    int    `json:"distance"`
	Extended    bool   `json:"extended"`
	Workers     int    `json:"workers,omitempty"`
}

func buildScalabilitySweep(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	var p scalabilitySweepParams
	if err := decodeParams(raw, &p); err != nil {
		return "", "", nil, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Design == "" {
		return "", "", nil, simerr.Invalidf("service: scalability.sweep needs a design name")
	}
	d, ok := microarch.DesignByName(p.Design)
	if !ok {
		return "", "", nil, simerr.Invalidf("service: unknown design %q", p.Design)
	}
	if len(p.QubitCounts) == 0 {
		return "", "", nil, simerr.Invalidf("service: scalability.sweep needs at least one qubit count")
	}
	for _, n := range p.QubitCounts {
		if n <= 0 {
			return "", "", nil, simerr.Invalidf("service: qubit count must be positive, got %d", n)
		}
	}
	key, keyed, err := requestKey(jobs.KindScalabilitySweep, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		opt := scalability.OptionsFor(pp.Distance, pp.Extended)
		opt.Workers = pp.Workers
		opt.Progress = progress
		res, err := scalability.SweepCtx(ctx, d, pp.QubitCounts, opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		body, err := marshalEnvelope(jobs.KindScalabilitySweep, key, keyed, 0, 0, res)
		return body, res.Status, err
	}
	return jobs.KindScalabilitySweep, key, run, nil
}

func f64(v float64) *float64 { return &v }
