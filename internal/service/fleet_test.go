package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/chaos"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/metrics"
	"qisim/internal/obs"
)

// TestFleetStatusEndpoint covers /v1/fleet/status on a coordinator: every
// worker it has heard from appears with its state and last-contact age, the
// dispatch stats are present, ?format=tree renders, and an unknown format
// is a 400.
func TestFleetStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4,
	}})
	startFleet(t, ts, 2)
	runToBytes(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":2000,"shard_size":128,"seed":11}}`)

	code, body := getBody(t, ts.URL+"/v1/fleet/status")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var view fleetStatusView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !view.Enabled || len(view.Workers) != 2 {
		t.Fatalf("want an enabled view with 2 workers, got %+v", view)
	}
	for _, w := range view.Workers {
		if w.State != "healthy" {
			t.Errorf("worker %s state %q, want healthy", w.ID, w.State)
		}
	}
	if view.Stats.UnitsDone == 0 {
		t.Fatalf("dispatch stats missing from status: %+v", view.Stats)
	}

	code, body = getBody(t, ts.URL+"/v1/fleet/status?format=tree")
	if code != http.StatusOK || !strings.Contains(string(body), "fleet: 2 workers (2 healthy)") {
		t.Fatalf("tree render (%d):\n%s", code, body)
	}
	if code, _ = getBody(t, ts.URL+"/v1/fleet/status?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", code)
	}
}

// TestFleetStatusOnStandalone: a non-coordinator answers the same query
// with enabled=false instead of erroring, so one dashboard query works
// against any role.
func TestFleetStatusOnStandalone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := getBody(t, ts.URL+"/v1/fleet/status")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var view fleetStatusView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Enabled || len(view.Workers) != 0 {
		t.Fatalf("standalone fleet view: %+v", view)
	}
	if code, body := getBody(t, ts.URL+"/v1/fleet/status?format=tree"); code != http.StatusOK ||
		!strings.Contains(string(body), "not a coordinator") {
		t.Fatalf("tree on standalone (%d): %s", code, body)
	}
}

// TestFederatedFleetSeries: after a fleet run, the coordinator's own
// /metrics carries per-worker qisimd_fleet_* series — both its bookkeeping
// gauges and the workers' reported unit counts, chaos counts and merged
// unit-seconds histogram — and /v1/fleet/status marks the rows federated.
func TestFederatedFleetSeries(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4,
	}})
	startFleet(t, ts, 2, func(i int, cfg *dist.WorkerConfig) {
		if i == 1 {
			cfg.Chaos = func() int64 { return 7 }
		}
	})
	// Either worker may run every unit of one small job: run jobs until
	// the chaos worker has reported.
	for seed := 11; srv.Dist().FleetSnapshot().Workers[1].Telemetry == nil; seed++ {
		if seed > 40 {
			t.Fatal("fleet-w1 reported no unit in 30 jobs")
		}
		runToBytes(t, ts, fmt.Sprintf(`{"kind":"surface.mc","params":{"distance":3,"shots":2000,"shard_size":128,"seed":%d}}`, seed))
	}

	if n := scrapeMetric(t, ts, `qisimd_fleet_workers{state="healthy"}`); n != 2 {
		t.Fatalf("fleet_workers{healthy} = %v, want 2", n)
	}
	var unitsTotal float64
	for i := 0; i < 2; i++ {
		series := fmt.Sprintf(`qisimd_fleet_worker_leases{worker="fleet-w%d"}`, i)
		if got := scrapeMetric(t, ts, series); got != 0 {
			t.Errorf("%s = %v after the job drained, want 0", series, got)
		}
		unitsTotal += scrapeMetric(t, ts,
			fmt.Sprintf(`qisimd_fleet_worker_units_total{worker="fleet-w%d"}`, i))
	}
	if unitsTotal == 0 {
		t.Fatal("no qisimd_fleet_worker_units_total series — report telemetry never arrived")
	}
	if n := scrapeMetric(t, ts, `qisimd_fleet_worker_chaos_injected_total{worker="fleet-w1"}`); n != 7 {
		t.Fatalf("fleet-w1 chaos series = %v, want the 7 its Chaos reads", n)
	}
	if n := scrapeMetric(t, ts, "qisimd_fleet_unit_seconds_count"); n == 0 {
		t.Fatal("qisimd_fleet_unit_seconds histogram is empty")
	}

	var view fleetStatusView
	_, body := getBody(t, ts.URL+"/v1/fleet/status")
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	for _, w := range view.Workers {
		want := int64(0)
		if w.ID == "fleet-w1" {
			want = 7
			if !w.Federated || w.UnitsDone == 0 {
				t.Errorf("fleet-w1 reported but its row is not federated: %+v", w)
			}
		}
		if w.ChaosInjected != want {
			t.Errorf("%s chaos_injected = %d, want %d", w.ID, w.ChaosInjected, want)
		}
	}
}

// TestFleetUnitSecondsKeepsWorkerLayout: a report whose unit-seconds
// histogram has other bounds is accepted without its telemetry, so the
// fleet histogram keeps the workers' layout and adds the other workers'
// buckets, although the foreign worker sorts first.
func TestFleetUnitSecondsKeepsWorkerLayout(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second}})
	ctx := context.Background()
	for _, r := range []struct {
		id string
		h  metrics.HistogramSummary
	}{
		{"w-a", metrics.HistogramSummary{Bounds: []float64{0.5, 5}, Buckets: []uint64{3, 4}, Sum: 2, Count: 4}},
		{"w-b", metrics.HistogramSummary{Bounds: metrics.DefaultLatencyBuckets(),
			Buckets: []uint64{0, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2}, Sum: 0.025, Count: 2}},
		{"w-c", metrics.HistogramSummary{Bounds: metrics.DefaultLatencyBuckets(),
			Buckets: []uint64{1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3}, Sum: 0.5, Count: 4}},
	} {
		admitWorkers(t, srv.Dist(), r.id)
		// A report for a job this coordinator does not run is acked, and
		// its telemetry still counts.
		body, err := dist.EncodeUnitResult(dist.UnitResult{Kind: "surface.mc", Key: "k-none", End: 1,
			States: []json.RawMessage{[]byte(`1`)}, Events: []int{0}, Worker: r.id,
			Telemetry: &dist.Telemetry{UnitSeconds: r.h}})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Dist().Report(ctx, r.id, body); err != nil {
			t.Fatalf("report from %s: %v", r.id, err)
		}
	}

	_, raw := getBody(t, ts.URL+"/metrics")
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "qisimd_fleet_unit_seconds") {
			got = append(got, line)
		}
	}
	want := []string{
		`qisimd_fleet_unit_seconds_bucket{le="0.001"} 1`, `qisimd_fleet_unit_seconds_bucket{le="0.003"} 1`,
		`qisimd_fleet_unit_seconds_bucket{le="0.01"} 2`, `qisimd_fleet_unit_seconds_bucket{le="0.03"} 3`,
		`qisimd_fleet_unit_seconds_bucket{le="0.1"} 4`, `qisimd_fleet_unit_seconds_bucket{le="0.3"} 5`,
		`qisimd_fleet_unit_seconds_bucket{le="1"} 5`, `qisimd_fleet_unit_seconds_bucket{le="3"} 5`,
		`qisimd_fleet_unit_seconds_bucket{le="10"} 5`, `qisimd_fleet_unit_seconds_bucket{le="30"} 5`,
		`qisimd_fleet_unit_seconds_bucket{le="100"} 5`, `qisimd_fleet_unit_seconds_bucket{le="+Inf"} 6`,
		`qisimd_fleet_unit_seconds_sum 0.525`, `qisimd_fleet_unit_seconds_count 6`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fleet histogram:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if w := srv.Dist().FleetSnapshot().Workers; w[0].Telemetry != nil || w[1].Telemetry == nil || w[2].Telemetry == nil {
		t.Fatalf("telemetry kept: w-a %+v, w-b %+v, w-c %+v", w[0].Telemetry, w[1].Telemetry, w[2].Telemetry)
	}
}

// TestFleetForgetsSilentWorker: a worker still reads lost after 19 lease
// TTLs of silence; the sweep at 20 forgets it, so it leaves the fleet
// status and every qisimd_fleet_* series, and its next claim admits it
// afresh. The server's coordinator is swapped for one on a fake clock
// (the scrape-time series and the dist routes read s.dist).
func TestFleetForgetsSilentWorker(t *testing.T) {
	const ttl = time.Second
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
		return now
	}

	srv, err := New(Config{Dist: DistConfig{Enabled: true, LeaseTTL: ttl}})
	if err != nil {
		t.Fatal(err)
	}
	srv.dist = dist.NewCoordinator(dist.Config{Clock: clock, LeaseTTL: ttl, Flight: srv.Flight()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background()) //nolint:errcheck
	})
	claim := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/dist/claim", "application/json", strings.NewReader(`{"worker":"w1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("claim: status %d", resp.StatusCode)
		}
	}

	claim()
	srv.dist.Sweep(advance(19 * ttl))
	if w := srv.dist.FleetSnapshot().Workers; len(w) != 1 || w[0].State != "lost" {
		t.Fatalf("at 19×TTL: workers %+v, want w1 lost", w)
	}
	if n := scrapeMetric(t, ts, `qisimd_fleet_workers{state="lost"}`); n != 1 {
		t.Fatalf(`at 19×TTL: qisimd_fleet_workers{state="lost"} = %v, want 1`, n)
	}

	srv.dist.Sweep(advance(ttl))
	if w := srv.dist.FleetSnapshot().Workers; len(w) != 0 {
		t.Fatalf("at 20×TTL: workers %+v, want none", w)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "qisimd_fleet_") && (strings.Contains(line, `worker="w1"`) ||
			strings.HasPrefix(line, "qisimd_fleet_workers{") && !strings.HasSuffix(line, " 0")) {
			t.Errorf("at 20×TTL the forgotten worker still counts: %s", line)
		}
	}
	if srv.Flight().Snapshot().Count("worker.forget") != 1 {
		t.Error("no worker.forget flight event")
	}

	claim()
	if n := scrapeMetric(t, ts, `qisimd_fleet_workers{state="healthy"}`); n != 1 {
		t.Fatalf(`after a new claim: qisimd_fleet_workers{state="healthy"} = %v, want 1`, n)
	}
	if n := srv.Flight().Snapshot().Count("worker.register"); n != 2 {
		t.Fatalf("worker.register events = %d, want 2 (first contact, then re-admission)", n)
	}
}

// TestForgottenWorkerLeavesNoSeries: after the coordinator accepts a unit
// from w1 and a sweep more than 20 lease TTLs later forgets w1, no series
// on /metrics names it. The coordinator's unit-seconds histogram still counts
// the unit, without a worker label, and until w1 is forgotten its status
// row reads the unit quantiles from w1's own telemetry.
func TestForgottenWorkerLeavesNoSeries(t *testing.T) {
	const ttl = 5 * time.Second
	srv, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: ttl, UnitShards: 64}})
	ctx := context.Background()
	c := srv.Dist()
	admitWorkers(t, c, "w1")
	code, sub := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	var g *dist.LeaseGrant
	for deadline := time.Now().Add(10 * time.Second); g == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no grant")
		}
		var err error
		if g, err = c.Claim(ctx, "w1", "", 0); err != nil {
			t.Fatal(err)
		}
	}
	core, err := BuildCore(g.Kind, g.Params)
	if err != nil {
		t.Fatal(err)
	}
	states, events, err := core.RunWindow(ctx, g.Plan, g.Start, g.End)
	if err != nil {
		t.Fatal(err)
	}
	unitSecs := metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	unitSecs.Observe(0.02)
	body, err := dist.EncodeUnitResult(dist.UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start, End: g.End,
		States: states, Events: events, Worker: "w1", Telemetry: &dist.Telemetry{UnitSeconds: unitSecs.Summary()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(ctx, "w1", body); err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ts, sub.Job.ID); snap.State != jobs.StateDone {
		t.Fatalf("job %s (%s)", snap.State, snap.Error)
	}
	if w := srv.fleetStatus().Workers; len(w) != 1 || w[0].UnitP50 <= 0.01 || w[0].UnitP50 > 0.03 {
		t.Errorf("status rows %+v, want w1's p50 in its 0.01–0.03 s telemetry bucket", w)
	}

	c.Sweep(time.Now().Add(21 * ttl))
	_, raw := getBody(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, `worker="w1"`) {
			t.Errorf("forgotten w1 still has a series: %s", line)
		}
	}
	if n := scrapeMetric(t, ts, "qisimd_dist_unit_seconds_count"); n != 1 {
		t.Errorf("qisimd_dist_unit_seconds_count = %v, want the one accepted unit", n)
	}
}

// TestREDSeriesOnRoutes: the RED middleware measures every route under its
// mux pattern — explicit statuses, implicit 200s, and pattern-labelled
// errors (no per-URL series explosion).
func TestREDSeriesOnRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
	}
	if n := scrapeMetric(t, ts, `qisimd_http_requests_total{route="/healthz",method="GET",code="200"}`); n != 3 {
		t.Fatalf("healthz RED count = %v, want 3", n)
	}
	if n := scrapeMetric(t, ts, `qisimd_http_request_seconds_count{route="/healthz"}`); n != 3 {
		t.Fatalf("healthz latency count = %v, want 3", n)
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	if n := scrapeMetric(t, ts, `qisimd_http_requests_total{route="/v1/jobs/{id}",method="GET",code="404"}`); n != 1 {
		t.Fatalf("pattern-labelled 404 count = %v, want 1", n)
	}
}

// TestChaosInjectionExportAndFlight: injected faults surface in
// qisimd_chaos_injected_total{side,fault} and the flight recorder; a
// registered client-side source folds into the same family; and because
// RED composes OUTSIDE the chaos middleware, the injected 5xx responses
// are measured as real traffic.
func TestChaosInjectionExportAndFlight(t *testing.T) {
	spec := &chaos.Spec{Seed: 42, Error5xx: chaos.Burst5xxSpec{P: 1}} // every dist request 5xxes
	srv, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4, Chaos: spec,
	}})
	srv.RegisterChaosStats("client", func() chaos.Stats {
		return chaos.Stats{"requests": 9, chaos.FaultDrop: 4}
	})

	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/dist/claim", "application/json",
			strings.NewReader(`{"worker":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503 injected", i, resp.StatusCode)
		}
	}
	if n := scrapeMetric(t, ts, `qisimd_chaos_injected_total{side="server",fault="error5xx"}`); n < 1 {
		t.Fatalf("server error5xx injections = %v, want >= 1", n)
	}
	if n := scrapeMetric(t, ts, `qisimd_chaos_injected_total{side="client",fault="drop"}`); n != 4 {
		t.Fatalf("client drop injections = %v, want 4", n)
	}
	// The injectors' raw-traffic counter is not a fault and must stay out.
	if n := scrapeMetric(t, ts, `qisimd_chaos_injected_total{side="client",fault="requests"}`); n != 0 {
		t.Fatalf("traffic counter leaked into the fault export: %v", n)
	}
	ev, ok := srv.Flight().Snapshot().Find("chaos.inject")
	if !ok || ev.Attr("side") != "server" || ev.Attr("fault") != chaos.Fault5xx {
		t.Fatalf("no server-side chaos.inject flight event with its fault (found %v: %+v)", ok, ev)
	}
	if n := scrapeMetric(t, ts, `qisimd_http_requests_total{route="/v1/dist/claim",method="POST",code="503"}`); n != 5 {
		t.Fatalf("RED did not measure the injected 5xxes: %v, want 5", n)
	}
}

// TestBuildInfoGauge: the constant build-identity series is always present.
func TestBuildInfoGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `qisimd_build_info{version=`) {
		t.Fatalf("qisimd_build_info missing from /metrics")
	}
}

// TestFlightEndpointAndPersistence: /v1/debug/flight serves the ring as an
// obs.Trace of events in the trace endpoint's three formats, each dating
// its events, rejects any other format, and persistFlight (the panic
// backstop's sink) writes the same trace to flight-last.json under the data
// dir.
func TestFlightEndpointAndPersistence(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	srv.Flight().Event("test.marker", obs.String("k", "v"))

	// checkDump: a valid trace, dated, holding the marker as an event.
	checkDump := func(form string, dump obs.Trace) {
		t.Helper()
		if err := dump.Check(); err != nil {
			t.Fatalf("%s dump: %v", form, err)
		}
		ev, ok := dump.Find("test.marker")
		if dump.ID != "flight" || dump.EpochNS == 0 || !ok || ev.Attr("k") != "v" || ev.DurNS() != 0 {
			t.Fatalf("%s dump = %+v, want the dated flight trace with the marker event", form, dump)
		}
	}
	code, body := getBody(t, ts.URL+"/v1/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d", code)
	}
	var dump obs.Trace
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("decode flight dump: %v", err)
	}
	checkDump("json", dump)
	code, body = getBody(t, ts.URL+"/v1/debug/flight?format=chrome")
	chrome, err := obs.ParseChrome(strings.NewReader(string(body)))
	if code != http.StatusOK || err != nil {
		t.Fatalf("chrome dump (%d, %v):\n%s", code, err, body)
	}
	checkDump("chrome", chrome)
	epoch := time.Unix(0, dump.EpochNS).UTC().Format(time.RFC3339Nano)
	if code, body := getBody(t, ts.URL+"/v1/debug/flight?format=tree"); code != http.StatusOK ||
		!strings.Contains(string(body), "epoch "+epoch) || !strings.Contains(string(body), "test.marker @") {
		t.Fatalf("tree dump (%d), want epoch %s and the marker at its offset:\n%s", code, epoch, body)
	}
	for _, format := range []string{"text", "xml"} {
		if code, _ := getBody(t, ts.URL+"/v1/debug/flight?format="+format); code != http.StatusBadRequest {
			t.Fatalf("format %s: status %d, want 400", format, code)
		}
	}

	srv.persistFlight()
	raw, err := os.ReadFile(filepath.Join(dir, "flight-last.json"))
	if err != nil {
		t.Fatalf("flight-last.json: %v", err)
	}
	var persisted obs.Trace
	if err := json.Unmarshal(raw, &persisted); err != nil {
		t.Fatalf("decode persisted dump: %v", err)
	}
	checkDump("persisted", persisted)
}

// TestCoordinatorShutdownLeaksNoGoroutines: the observability plane's
// scrape-time funcs plus the coordinator's sweep loop and a full
// fleet run with its report telemetry must all terminate on Drain —
// the goroutine count returns to the pre-server baseline.
func TestCoordinatorShutdownLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, err := New(Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: time.Second, UnitShards: 4,
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	// A fleet managed inline (not via t.Cleanup) so its goroutines are
	// provably gone before the final count.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		client := &dist.Client{Base: ts.URL}
		id := fmt.Sprintf("leak-w%d", i)
		if _, err := client.Claim(ctx, id, "", 0); err != nil {
			t.Fatalf("first claim of %s: %v", id, err)
		}
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // ends by cancellation
		}()
	}
	runToBytes(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":2000,"shard_size":128,"seed":11}}`)
	getBody(t, ts.URL+"/v1/fleet/status")
	getBody(t, ts.URL+"/metrics")

	cancel()
	wg.Wait()
	ts.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitForGoroutines(t, baseline)
}
