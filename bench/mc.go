package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"qisim/internal/obs"
	"qisim/internal/readout"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

// mcSpec is one Monte-Carlo configuration, run repeatedly with fresh seeds.
type mcSpec[R any] struct {
	shots, shardSize int
	// band names the pinned reference rate every estimate is checked
	// against.
	band string
	// public runs the configuration through the package's entry point.
	public func(ctx context.Context, seed int64, opt simrun.Options) (mcResult, error)
	// core returns the package's shard sampler and merge for the same
	// configuration, and result assembles the public result from them.
	core   func() (simrun.ShardFunc[R], func(*R, R), error)
	result func(acc R, st simrun.Status) mcResult

	// The layer metrics: worker time per shot and the median shard time.
	perShotMetric, perShotUnit string
	shardMetric, shardUnit     string
}

// mcResult is a run's public result with its binomial estimate.
type mcResult struct {
	value         any // compared between runs by its JSON encoding
	events, shots int
}

func (m mcResult) encode() []byte {
	b, err := json.Marshal(m.value)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// newMCDecode is the decoder-bound workload: at d=7 the space-time matcher
// takes nearly all worker time, so per-shard engine overhead is invisible.
func newMCDecode(r *run) workload {
	const d, rounds, p, q = 7, 7, 0.005, 0.005
	shots := 100_000
	if r.cfg.Quick {
		shots = 4_000
	}
	return &mcWorkload[int]{r: r, spec: mcSpec[int]{
		shots: shots, shardSize: simrun.DefaultShardSize, band: "surface-d7",
		public: func(ctx context.Context, seed int64, opt simrun.Options) (mcResult, error) {
			res, err := surface.MonteCarloPhenomenologicalCtx(ctx, d, p, q, rounds, shots, seed, opt)
			return mcResult{value: res, events: res.Failures, shots: res.Shots}, err
		},
		core: func() (simrun.ShardFunc[int], func(*int, int), error) {
			return surface.PhenomenologicalCore(d, p, q, rounds)
		},
		result: func(failures int, st simrun.Status) mcResult {
			res := surface.DecoderResultFrom(failures, st)
			return mcResult{value: res, events: res.Failures, shots: res.Shots}
		},
		perShotMetric: "surface.us_per_shot", perShotUnit: "us",
		shardMetric: "surface.shard_ms_p50", shardUnit: "ms",
	}}
}

// newMCFineShards is the engine-bound workload: 16-shot shards of the cheap
// multi-round readout kernel, so seeding, dispatch and merge dominate. It is
// the pair to mc-decode: an engine change shows here and not there.
func newMCFineShards(r *run) workload {
	const shardSize = 16
	shots := 1_600_000
	if r.cfg.Quick {
		shots = 64_000
	}
	chain, timing := readout.DefaultChain(), readout.DefaultTiming()
	cfg := readout.DefaultMultiRoundConfig()
	cfg.Shots = shots
	estimate := func(res readout.MultiRoundResult) mcResult {
		n := res.Status.Completed
		return mcResult{value: res, events: int(math.Round(res.Error * float64(n))), shots: n}
	}
	return &mcWorkload[readout.MultiRoundTally]{r: r, spec: mcSpec[readout.MultiRoundTally]{
		shots: shots, shardSize: shardSize, band: "readout-multiround",
		public: func(ctx context.Context, seed int64, opt simrun.Options) (mcResult, error) {
			c := cfg
			c.Seed = seed
			res, err := readout.MultiRoundErrorCtx(ctx, chain, timing, c, opt)
			return estimate(res), err
		},
		core: func() (simrun.ShardFunc[readout.MultiRoundTally], func(*readout.MultiRoundTally, readout.MultiRoundTally), error) {
			_, run, merge, err := readout.MultiRoundCore(chain, timing, cfg)
			return run, merge, err
		},
		result: func(acc readout.MultiRoundTally, st simrun.Status) mcResult {
			return estimate(readout.MultiRoundResultFrom(timing, acc, st))
		},
		perShotMetric: "readout.ns_per_shot", perShotUnit: "ns",
		shardMetric: "readout.shard_us_p50", shardUnit: "us",
	}}
}

// mcWorkload runs one configuration back to back, one run at a time, each
// with Workers = GOMAXPROCS. Untraced runs go through the public entry
// point; traced runs go through the package's core and simrun.RunSharded
// with timed shard and merge functions.
type mcWorkload[R any] struct {
	r    *run
	spec mcSpec[R]
	band band
	next int // index of the next run's input seed

	// The first measured run, re-executed serially in finish, and the
	// first traced run, re-executed through the public entry point.
	first, firstTraced *mcRecord

	rates      []float64    // shots per second of the untraced runs
	runs       []mcRunStats // traced runs
	emptyShard []float64    // µs of worker time per no-op shard
}

type mcRecord struct {
	seed   int64
	result []byte
}

// mcRunStats is one traced run's engine accounting.
type mcRunStats struct {
	wall, busy, merge, tail, shardP50 time.Duration
	shards, workers                   int
}

func (w *mcWorkload[R]) setup(ctx context.Context) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	if w.band, err = p.band(w.spec.band); err != nil {
		return err
	}
	_, err = w.runOnce(ctx, false)
	return err
}

func (w *mcWorkload[R]) options() simrun.Options {
	return simrun.Options{ShardSize: w.spec.shardSize}
}

// runOnce runs the next input and checks its estimate against the band.
func (w *mcWorkload[R]) runOnce(ctx context.Context, traced bool) (time.Duration, error) {
	seed := inputSeed(w.r.cfg.Seed, w.next)
	w.next++
	t0 := time.Now()
	var res mcResult
	var err error
	if traced {
		res, err = w.tracedRun(ctx, seed)
	} else {
		res, err = w.spec.public(ctx, seed, w.options())
	}
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("seed %d: %w", seed, err)
	}
	rec := &mcRecord{seed: seed, result: res.encode()}
	if w.first == nil {
		w.first = rec
	}
	if traced && w.firstTraced == nil {
		w.firstTraced = rec
	}
	if err := w.band.contains(res.events, res.shots); err != nil {
		return 0, fmt.Errorf("seed %d: %w", seed, err)
	}
	return d, nil
}

func (w *mcWorkload[R]) measure(ctx context.Context, deadline time.Time, traced bool) error {
	w.first = nil // the warm-up run is not the one re-executed
	for time.Now().Before(deadline) {
		d, err := w.runOnce(ctx, traced)
		w.r.op(d, err)
		if err == nil && !traced {
			w.rates = append(w.rates, float64(w.spec.shots)/d.Seconds())
		}
	}
	return nil
}

// tracedRun runs one input through the core with every shard and merge
// timed. Shard timings land in per-index slots, so workers never contend.
func (w *mcWorkload[R]) tracedRun(ctx context.Context, seed int64) (mcResult, error) {
	run, merge, err := w.spec.core()
	if err != nil {
		return mcResult{}, err
	}
	nShards := (w.spec.shots + w.spec.shardSize - 1) / w.spec.shardSize
	starts := make([]int64, nShards)
	ends := make([]int64, nShards)
	var mergeNS int64 // merges run one at a time under the engine's commit lock
	var calls atomic.Int64
	runSpan := w.r.span("mc.run", nil, obs.Int("seed", int(seed)), obs.Int("shards", nShards))
	t0 := time.Now()
	timedRun := func(t *simrun.ShardTask) (R, int, error) {
		calls.Add(1)
		sp := w.r.span("shard", runSpan, obs.Int("shard", t.Index))
		starts[t.Index] = int64(time.Since(t0))
		res, events, err := run(t)
		ends[t.Index] = int64(time.Since(t0))
		sp.End()
		return res, events, err
	}
	timedMerge := func(dst *R, src R) {
		s := time.Now()
		merge(dst, src)
		mergeNS += int64(time.Since(s))
	}
	acc, st, err := simrun.RunSharded(ctx, w.spec.shots, seed, w.options(), timedRun, timedMerge)
	wall := time.Since(t0)
	runSpan.End()
	if err != nil {
		return mcResult{}, err
	}
	stats := mcRunStats{wall: wall, merge: time.Duration(mergeNS), shards: int(calls.Load()),
		workers: min(runtime.GOMAXPROCS(0), nShards)}
	durs := make([]float64, nShards)
	for i := range starts {
		stats.busy += time.Duration(ends[i] - starts[i])
		durs[i] = float64(ends[i] - starts[i])
	}
	stats.shardP50 = time.Duration(median(durs))
	stats.tail = tail(ends, stats.workers, int64(wall))
	w.runs = append(w.runs, stats)
	return w.spec.result(acc, st), nil
}

// tail is the time from the first of the run's workers going idle to the
// end of the run. A worker idles once its shard ends and none is left to
// hand out, so the workers' final shards are the ones that end last, and
// the first worker to idle is the one whose final shard ends earliest.
func tail(ends []int64, workers int, wall int64) time.Duration {
	if workers < 1 || workers > len(ends) {
		return 0
	}
	s := append([]int64(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return time.Duration(wall - s[workers-1])
}

// emptyShardCost runs the same shard plan through simrun.RunSharded with a
// no-op shard function and returns the engine's worker time per shard in µs.
func (w *mcWorkload[R]) emptyShardCost(ctx context.Context) (float64, error) {
	nShards := (w.spec.shots + w.spec.shardSize - 1) / w.spec.shardSize
	noop := func(*simrun.ShardTask) (struct{}, int, error) { return struct{}{}, 0, nil }
	t0 := time.Now()
	_, _, err := simrun.RunSharded(ctx, w.spec.shots, 1, w.options(), noop, func(*struct{}, struct{}) {})
	wall := time.Since(t0)
	workers := min(runtime.GOMAXPROCS(0), nShards)
	return float64(wall) * float64(workers) / float64(nShards) / 1e3, err
}

func (w *mcWorkload[R]) finish(ctx context.Context, traced bool) error {
	if w.first != nil {
		opt := w.options()
		opt.Workers = 1
		res, err := w.spec.public(ctx, w.first.seed, opt)
		w.r.check("serial-reexecution", err == nil && bytes.Equal(res.encode(), w.first.result),
			"seed %d with Workers=1 vs GOMAXPROCS: %s vs %s (err %v)", w.first.seed, res.encode(), w.first.result, err)
	}
	if !traced {
		w.r.put("shots_per_s", "shots/s", median(w.rates), len(w.rates))
		return nil
	}
	if len(w.runs) == 0 {
		return nil
	}
	res, err := w.spec.public(ctx, w.firstTraced.seed, w.options())
	w.r.check("core-matches-public", err == nil && bytes.Equal(res.encode(), w.firstTraced.result),
		"seed %d timed core path vs public entry point: %s vs %s (err %v)",
		w.firstTraced.seed, w.firstTraced.result, res.encode(), err)

	for i := 0; i < 5; i++ {
		us, err := w.emptyShardCost(ctx)
		if err != nil {
			return err
		}
		w.emptyShard = append(w.emptyShard, us)
	}
	n := len(w.runs)
	col := func(f func(s mcRunStats) float64) []float64 {
		out := make([]float64, n)
		for i, s := range w.runs {
			out[i] = f(s)
		}
		return out
	}
	w.r.put(w.spec.perShotMetric, w.spec.perShotUnit, median(col(func(s mcRunStats) float64 {
		return inUnit(float64(s.busy)/float64(w.spec.shots), w.spec.perShotUnit)
	})), n)
	w.r.put(w.spec.shardMetric, w.spec.shardUnit, median(col(func(s mcRunStats) float64 {
		return inUnit(float64(s.shardP50), w.spec.shardUnit)
	})), n)
	w.r.put("simrun.overhead_share", "ratio", median(col(func(s mcRunStats) float64 {
		return 1 - float64(s.busy)/(float64(s.workers)*float64(s.wall))
	})), n)
	w.r.put("simrun.empty_shard_us", "us", median(w.emptyShard), len(w.emptyShard))
	w.r.put("simrun.merge_us_total", "us", median(col(func(s mcRunStats) float64 {
		return inUnit(float64(s.merge), "us")
	})), n)
	w.r.put("simrun.tail_ms", "ms", median(col(func(s mcRunStats) float64 {
		return inUnit(float64(s.tail), "ms")
	})), n)
	w.r.put("simrun.shards", "count", median(col(func(s mcRunStats) float64 { return float64(s.shards) })), n)
	return nil
}

// inUnit converts nanoseconds to the named time unit.
func inUnit(ns float64, unit string) float64 {
	switch unit {
	case "us":
		return ns / 1e3
	case "ms":
		return ns / 1e6
	case "s":
		return ns / 1e9
	}
	return ns
}

func (w *mcWorkload[R]) close() {}
