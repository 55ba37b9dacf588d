// Chaos network equivalence: the headline invariant of the chaos layer.
// A 4-worker fleet whose every coordinator RPC passes through seeded fault
// injection — client-side (drops, resets, duplicated deliveries, reordering,
// corrupted and truncated responses) AND server-side (latency, 5xx bursts,
// aborted responses, duplicated handler deliveries) — must produce a merged
// result JSON byte-identical to a standalone run, for every seeded schedule
// that does not permanently partition the fleet. A second test puts a lying
// worker on the wire and proves the spot-check/quarantine pipeline fires all
// the way up to the Prometheus surface.
package qisim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"qisim/internal/backoff"
	"qisim/internal/chaos"
	"qisim/internal/dist"
	"qisim/internal/service"
)

// chaosNetJob exercises both engine parallelism and multi-unit dispatch:
// 4000 shots / 128-shard → 32 shards → 8 leased units on UnitShards 4.
const chaosNetJob = `{"kind":"surface.mc","params":{"distance":3,"shots":4000,"shard_size":128,"seed":11,"workers":2}}`

// chaosNetSchedules are the seeded fault mixes of the equivalence matrix.
// Every schedule carries drops, latency, corruption and duplication (the
// four headline faults); each emphasizes a different regime and none is
// severe enough to permanently partition a retrying fleet.
func chaosNetSchedules() []struct {
	name   string
	server chaos.Spec // wraps the coordinator's /v1/dist/* endpoints
	client chaos.Spec // wraps every worker's RPC transport
} {
	return []struct {
		name   string
		server chaos.Spec
		client chaos.Spec
	}{
		{
			name:   "lossy-and-slow",
			server: chaos.Spec{Seed: 101, Latency: chaos.LatencySpec{P: 0.2, MinMS: 1, MaxMS: 8}, Error5xx: chaos.Burst5xxSpec{P: 0.03, Len: 2, Status: 503}},
			client: chaos.Spec{Seed: 102, Drop: 0.12, Reset: 0.05, Duplicate: 0.05, Corrupt: 0.03, Latency: chaos.LatencySpec{P: 0.2, MinMS: 1, MaxMS: 6}},
		},
		{
			name:   "corrupting-middlebox",
			server: chaos.Spec{Seed: 201, Abort: 0.05, Latency: chaos.LatencySpec{P: 0.1, MinMS: 1, MaxMS: 4}},
			client: chaos.Spec{Seed: 202, Corrupt: 0.1, Truncate: 0.06, Drop: 0.05, Duplicate: 0.05, Latency: chaos.LatencySpec{P: 0.1, MinMS: 1, MaxMS: 4}},
		},
		{
			name:   "duplicating-reorderer",
			server: chaos.Spec{Seed: 301, Error5xx: chaos.Burst5xxSpec{P: 0.04, Len: 2, Status: 503}},
			client: chaos.Spec{Seed: 302, Duplicate: 0.15, Reorder: chaos.ReorderSpec{P: 0.08, HoldMS: 20}, Drop: 0.05, Corrupt: 0.03, Latency: chaos.LatencySpec{P: 0.15, MinMS: 1, MaxMS: 5}},
		},
	}
}

// startChaosNetWorkers launches n dist.Workers whose every coordinator RPC
// crosses a seeded chaos transport (each worker gets its own schedule seed
// so the fleet's fault patterns are decorrelated but reproducible), and
// returns once the coordinator has heard from each: the first claim rides
// the chaotic transport too, and the worker retries it until it lands.
func startChaosNetWorkers(t *testing.T, base string, n int, spec chaos.Spec) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("chaotic-%d", i)
		ids = append(ids, id)
		wspec := spec
		wspec.Seed = spec.Seed*1000 + int64(i)
		client := &dist.Client{
			Base:        base,
			HTTP:        &http.Client{Transport: chaos.NewTransport(wspec, nil)},
			MaxAttempts: 6,
			Backoff:     backoff.Policy{Base: 5 * time.Millisecond, Cap: 80 * time.Millisecond, Factor: 2},
		}
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: service.BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1),
			Backoff: backoff.Policy{Base: 5 * time.Millisecond, Cap: 80 * time.Millisecond, Factor: 2},
		})
		if err != nil {
			cancel()
			t.Fatalf("NewWorker: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // ends by cancellation
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	waitJoined(t, base, ids...)
}

// TestChaosNetworkEquivalence pins the chaos layer's headline invariant:
// under every seeded schedule the 4-worker merged result is byte-identical
// to standalone.
func TestChaosNetworkEquivalence(t *testing.T) {
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, chaosNetJob)
	if len(want) == 0 {
		t.Fatal("standalone run produced no body")
	}

	for _, sched := range chaosNetSchedules() {
		sched := sched
		t.Run(sched.name, func(t *testing.T) {
			if err := sched.server.Validate(); err != nil {
				t.Fatalf("server spec: %v", err)
			}
			if err := sched.client.Validate(); err != nil {
				t.Fatalf("client spec: %v", err)
			}
			_, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
				Enabled: true, LeaseTTL: 500 * time.Millisecond, UnitShards: 4,
				SpotCheck: 0.25, // honest fleet: audits must all pass
				Chaos:     &sched.server,
			}})
			startChaosNetWorkers(t, ts.URL, 4, sched.client)
			got := chaosRun(t, ts.URL, chaosNetJob)
			if !bytes.Equal(got, want) {
				t.Fatalf("chaotic fleet differs from standalone:\n%s\n%s", got, want)
			}
			// The fleet must not have been quarantined: every injected fault
			// here is network-shaped, and honest workers survive audits.
			if v := scrapeMetric(t, ts.URL, "qisimd_dist_quarantine_total"); v != 0 {
				t.Fatalf("honest fleet quarantined %v workers", v)
			}
		})
	}
}

// TestChaosCorruptWorkerQuarantined drives a Byzantine worker through the
// real wire API: it reports forged shard states (well-formed container,
// honest digest over the lie), the coordinator's spot-check re-executes the
// window, the worker is quarantined, the job completes on the local lane
// with standalone bytes, and the Prometheus surface records the event.
func TestChaosCorruptWorkerQuarantined(t *testing.T) {
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, chaosNetJob)

	_, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4,
		SpotCheck: 1, // audit everything: the first forged unit must be caught
	}})
	client := registerWorker(t, ts.URL, "liar")

	done := startChaosRun(ts.URL, chaosNetJob)

	g := claimOneUnit(t, client, "liar")
	n := g.End - g.Start
	states := make([]json.RawMessage, n)
	events := make([]int, n)
	for i := range states {
		states[i] = json.RawMessage(fmt.Sprintf("%d", 9_999_000+i))
		events[i] = 1
	}
	body, err := dist.EncodeUnitResult(dist.UnitResult{Kind: g.Kind, Key: g.Key,
		Start: g.Start, End: g.End, States: states, Events: events, Worker: "liar"})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(context.Background(), "liar", body); err != nil {
		t.Fatal(err)
	}

	// With its only worker shunned the coordinator finishes locally —
	// byte-identical, because the forged unit's truth came from the
	// coordinator's own re-execution.
	if got := awaitChaosRun(t, done, 90*time.Second); !bytes.Equal(got, want) {
		t.Fatalf("post-quarantine result differs from standalone:\n%s\n%s", got, want)
	}

	if v := scrapeMetric(t, ts.URL, "qisimd_dist_quarantine_total"); v < 1 {
		t.Fatalf("qisimd_dist_quarantine_total = %v, want >= 1", v)
	}
	if v := scrapeMetric(t, ts.URL, `qisimd_dist_spotcheck_total{result="fail"}`); v < 1 {
		t.Fatalf("failed spot-check not exported: %v", v)
	}
}

// scrapeMetric fetches /metrics and returns the named series' value (0 if
// the series is absent, which for counters is the same statement).
func scrapeMetric(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `(?:\s+)(\S+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", series, m[1])
	}
	return v
}
