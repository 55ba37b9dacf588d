package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"qisim/internal/obs"
)

func TestRequestSequencesFollowTheSeed(t *testing.T) {
	for name, gen := range map[string]func(int64, int, bool) []request{
		"service": serviceRequests, "fleet": fleetRequests,
	} {
		a, b, c := gen(1, 400, false), gen(1, 400, false), gen(2, 400, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different request sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", name)
		}
	}
}

// TestServiceResubmitsAreFarBack pins the property the cache-hit share
// rests on: an MC request is only ever repeated at least resubmitMinBack
// positions after its first occurrence, so the original has finished.
func TestServiceResubmitsAreFarBack(t *testing.T) {
	reqs := serviceRequests(3, 4000, false)
	first := map[string]int{}
	repeats, kinds := 0, map[string]int{}
	for i, q := range reqs {
		kinds[q.kind]++
		if !q.mc() {
			continue
		}
		j, ok := first[string(q.body)]
		if !ok {
			first[string(q.body)] = i
			continue
		}
		repeats++
		if i-j < resubmitMinBack {
			t.Fatalf("request %d repeats request %d only %d positions back", i, j, i-j)
		}
	}
	if share := float64(repeats) / float64(len(reqs)); share < 0.15 || share > 0.25 {
		t.Errorf("resubmit share %.3f, want about 0.2", share)
	}
	if share := float64(kinds["scalability.analyze"]) / float64(len(reqs)); share < 0.07 || share > 0.13 {
		t.Errorf("scalability.analyze share %.3f, want about 0.1", share)
	}
}

func TestInputSeedsArePositiveAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 3; seed++ {
		for i := 0; i < 1000; i++ {
			s := inputSeed(seed, i)
			if s <= 0 || seen[s] {
				t.Fatalf("inputSeed(%d, %d) = %d: not positive or repeated", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSelfTimes folds a synthetic span tree: overlapping children count
// once, and a child sticking out of its parent counts only inside it.
func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 2, Name: "a.child", StartNS: 15, EndNS: 20},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples leaves 5 beyond it and must be refused")
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:15], 50); err == nil {
		t.Error("p50 of 15 samples leaves 7 beyond it and must be refused")
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestScaledUsesTheSamplesAroundEachOp: an operation is scaled by
// refNominalMS over the mean of the last reference sample before it
// started, those taken during it, and the first after it ended; at either
// end of the run, it has only one side.
func TestScaledUsesTheSamplesAroundEachOp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []refSample{{at(0), 1}, {at(100), 2}, {at(200), 4}}
	ops := []opRecord{
		{end: at(90), d: 80 * time.Millisecond},   // between samples 0 and 1
		{end: at(190), d: 10 * time.Millisecond},  // between samples 1 and 2
		{end: at(300), d: 50 * time.Millisecond},  // after the last sample
		{end: at(-10), d: 30 * time.Millisecond},  // before the first sample
		{end: at(150), d: 140 * time.Millisecond}, // sample 1 taken during it
	}
	got := scaledMS(ops, samples)
	want := []float64{80 / 1.5, 10 / 3.0, 50 / 4.0, 30 / 1.0, 140 / (7 / 3.0)}
	for i := range want {
		if want[i] *= refNominalMS; math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("op %d scaled to %v ms, want %v", i, got[i], want[i])
		}
	}
}

func TestTailStartsWhenTheFirstWorkerIdles(t *testing.T) {
	ends := []int64{5, 10, 8, 12}
	if got := tail(ends, 2, 13); got != 3 {
		t.Errorf("two workers: tail %v, want 3 (second-latest end 10 to wall 13)", got)
	}
	if got := tail(ends, 1, 13); got != 1 {
		t.Errorf("one worker: tail %v, want 1", got)
	}
}

func writeReports(t *testing.T, h host, workload string, vals ...float64) []string {
	t.Helper()
	var files []string
	for i, v := range vals {
		rep := report{config: config{Workload: workload}, Host: h,
			Metrics: map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(t.TempDir(), strings.ReplaceAll(t.Name(), "/", "_")+string(rune('a'+i))+".json")
		if err := os.WriteFile(f, append(b, "\n{\"correct\":true}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func TestCompareAppliesBoundsPerWorkload(t *testing.T) {
	def := definition{Workloads: []workloadDef{{Name: "service"}},
		EndToEnd: []metricDef{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	h := host{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2}
	base := writeReports(t, h, "service", 100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"slower", []float64{120, 121, 119, 120, 120}, "REGRESSION"},
		{"same", []float64{104, 103, 105, 104, 104}, "within bound"},
		{"noisy", []float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		rows, err := compare(def, base, writeReports(t, h, "service", c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s: rows %+v, want one %q", c.name, rows, c.want)
		}
	}
	other := host{CPUModel: "other cpu", NProc: 2, GOMAXPROCS: 2}
	if _, err := compare(def, base, writeReports(t, other, "service", 100)); err == nil {
		t.Error("reports from different hosts were compared")
	}
}

// exercised lists, per workload, the per-layer metrics a quick traced run
// must measure (n > 0). The rest read 0: that workload does not reach the
// layer (and the quick reproduce pass skips the three heaviest experiments).
var exercised = map[string][]string{
	"reproduce": {"experiments.fig19_s", "experiments.fig11_s", "experiments.other_s",
		"experiments.unattributed_share"},
	"mc-decode": {"surface.us_per_shot", "surface.shard_ms_p50", "simrun.overhead_share",
		"simrun.empty_shard_us", "simrun.merge_us_total", "simrun.tail_ms", "simrun.shards"},
	"mc-fine-shards": {"readout.ns_per_shot", "readout.shard_us_p50", "simrun.overhead_share",
		"simrun.empty_shard_us", "simrun.merge_us_total", "simrun.tail_ms", "simrun.shards"},
	"service": {"service.submit_ms_p50", "service.fetch_ms_p50", "service.unattributed_share",
		"jobs.queue_wait_ms_p50", "jobs.executor_self_ms_p50", "jobs.journal_append_ms_per_job",
		"checkpoint.saves_per_job", "checkpoint.save_ms_per_job", "checkpoint.load_ms_per_job",
		"simrun.shard_ms_per_job", "simrun.merge_ms_per_job", "rescache.hit_ratio", "rescache.hit_ms_p50"},
	"fleet": {"service.submit_ms_p50", "service.fetch_ms_p50", "service.unattributed_share",
		"jobs.queue_wait_ms_p50", "jobs.executor_self_ms_p50", "simrun.shard_ms_per_job",
		"dist.claim_ms_p50", "dist.report_ms_p50", "dist.empty_claim_ratio", "dist.units_per_job", "dist.unit_exec_ms_p50", "dist.lease_ms_p50", "dist.retries", "dist.local_units"},
}

// smokeSeconds is each quick run's measured time. The race detector slows a
// service job about fivefold, and 0.4 s would then end before the first
// resubmission, leaving the cache-hit metrics unmeasured.
var smokeSeconds = 0.4

// TestQuickSmoke runs every workload untraced and traced on small inputs:
// outputs must check out, the summary line must carry exactly the metrics
// BENCHMARK.json declares, and every layer a workload exercises must be
// measured.
func TestQuickSmoke(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	start := time.Now()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: name, Seed: 7, Seconds: smokeSeconds, Trace: traced, Quick: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			declared := def.declared(traced)
			rep, err := execute(context.Background(), cfg, time.Now(), declared)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d checks %+v", name, traced, rep.Correct, rep.Attempted, rep.Checks)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep, declared); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", name, err)
			}
			var want, got []string
			for _, d := range declared {
				want = append(want, d.Name)
			}
			for k := range sum.Metrics {
				got = append(got, k)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: summary metrics %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
			if !traced {
				for _, d := range declared {
					if m := rep.Metrics[d.Name]; m.N == 0 || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %+v", name, d.Name, m)
					}
				}
				continue
			}
			for _, m := range append(exercised[name], "bench.trace_overhead_share") {
				if rep.Metrics[m].N == 0 {
					t.Errorf("%s: per-layer metric %s was not measured", name, m)
				}
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
		}
	}
	t.Logf("quick smoke of %d workloads took %v", len(workloadNames), time.Since(start))
}
