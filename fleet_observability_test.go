// Fleet observability E2E: one 4-worker fleet run must light up the whole
// plane — every worker in /v1/fleet/status, per-worker qisimd_fleet_* series
// from the workers' report telemetry on the coordinator's /metrics, RED
// series for the dist routes, and the run's lease transitions as events in
// the flight recorder's trace — while the merged result JSON stays
// byte-identical to a standalone run. A second test pins the /metrics body
// to the Prometheus text-exposition rules (one HELP/TYPE per family,
// contiguous family blocks, sorted unique series), so the fleet series can
// never corrupt the scrape.
package qisim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/dist"
	"qisim/internal/obs"
	"qisim/internal/service"
)

// startObsFleet launches n workers, each with a flight recorder as a real
// `qisimd -role worker` has, and returns once the coordinator has heard
// from each; every worker reports its telemetry.
func startObsFleet(t *testing.T, base string, n int) []*obs.Tracer {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ids []string
	var flights []*obs.Tracer
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obs-%d", i)
		ids = append(ids, id)
		client := &dist.Client{Base: base}
		flight := obs.NewTracer(obs.TracerConfig{ID: "flight"})
		flights = append(flights, flight)
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: service.BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1), Trace: true,
			Flight: flight,
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
	return flights
}

// TestFleetObservabilityE2E drives one job across a 4-worker observed fleet
// and asserts the whole plane lit up without perturbing the result.
func TestFleetObservabilityE2E(t *testing.T) {
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, chaosNetJob)
	if len(want) == 0 {
		t.Fatal("standalone run produced no body")
	}

	srv, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
		Enabled: true, LeaseTTL: 2 * time.Second, UnitShards: 4,
	}})
	flights := startObsFleet(t, ts.URL, 4)
	got := chaosRun(t, ts.URL, chaosNetJob)
	if !bytes.Equal(got, want) {
		t.Fatalf("observed fleet differs from standalone:\n%s\n%s", got, want)
	}

	// Every worker is visible in /v1/fleet/status, healthy, and at least
	// the ones that executed units are federated.
	resp, err := http.Get(ts.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Enabled bool `json:"enabled"`
		Workers []struct {
			ID        string  `json:"id"`
			State     string  `json:"state"`
			Federated bool    `json:"federated"`
			UnitsDone float64 `json:"units_done"`
		} `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode fleet status: %v", err)
	}
	if !status.Enabled || len(status.Workers) != 4 {
		t.Fatalf("fleet status shows %d workers (enabled=%v), want 4", len(status.Workers), status.Enabled)
	}
	var federated int
	var fedUnits float64
	for _, w := range status.Workers {
		if w.State != "healthy" {
			t.Errorf("worker %s state %q, want healthy", w.ID, w.State)
		}
		if w.Federated {
			federated++
			fedUnits += w.UnitsDone
		}
	}
	if federated == 0 || fedUnits == 0 {
		t.Fatalf("no federated workers in status (federated=%d units=%v)", federated, fedUnits)
	}

	// Per-worker telemetry series on the coordinator's own /metrics.
	var unitsTotal float64
	for i := 0; i < 4; i++ {
		unitsTotal += scrapeMetric(t, ts.URL,
			fmt.Sprintf(`qisimd_fleet_worker_units_total{worker="obs-%d"}`, i))
	}
	if unitsTotal == 0 {
		t.Fatal("no per-worker qisimd_fleet_worker_units_total series on the coordinator")
	}
	if n := scrapeMetric(t, ts.URL, `qisimd_fleet_workers{state="healthy"}`); n != 4 {
		t.Fatalf("qisimd_fleet_workers{healthy} = %v, want 4", n)
	}
	if n := scrapeMetric(t, ts.URL, "qisimd_fleet_unit_seconds_count"); n == 0 {
		t.Fatal("qisimd_fleet_unit_seconds histogram is empty")
	}

	// RED series exist for the dist routes the fleet exercised.
	for _, route := range []string{"/v1/dist/claim", "/v1/dist/report"} {
		series := fmt.Sprintf(`qisimd_http_request_seconds_count{route=%q}`, route)
		if n := scrapeMetric(t, ts.URL, series); n < 1 {
			t.Errorf("%s = %v, want >= 1", series, n)
		}
	}

	// The coordinator's flight recorder holds the run's lease transitions,
	// and each worker's its claims and reports, all as events of a valid
	// trace.
	resp, err = http.Get(ts.URL + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.Trace
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode flight dump: %v", err)
	}
	checkFlight := func(dump obs.Trace, kinds ...string) {
		t.Helper()
		if err := dump.Check(); err != nil {
			t.Fatalf("flight dump: %v", err)
		}
		for _, k := range kinds {
			if ev, ok := dump.Find(k); !ok || ev.Attr("worker") == "" || ev.DurNS() != 0 {
				t.Errorf("flight dump has no %s event with its worker:\n%s", k, dump.TreeString())
			}
		}
	}
	checkFlight(dump, "worker.register", "lease.grant", "lease.done")
	claimed := 0
	for _, f := range flights {
		if d := f.Snapshot(); d.Count("worker.claim") > 0 {
			claimed++
			checkFlight(d, "worker.claim", "worker.report")
		}
	}
	if claimed == 0 {
		t.Error("no worker's flight recorder holds a claim")
	}

	_ = srv // lifecycle owned by chaosServer's cleanup
}

// validateExposition checks a /metrics body against the text-exposition
// rules this repo relies on: exactly one HELP and one TYPE line per family,
// emitted before its samples; family blocks contiguous (a family never
// reappears after another family's samples); every sample attributable to
// the current family (histogram _bucket/_sum/_count included); and series
// unique and sorted within each family.
func validateExposition(t *testing.T, body string) {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	closed := map[string]bool{} // families whose block has ended
	seriesSeen := map[string]bool{}
	current := ""
	var prevSeries string

	sampleFamily := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && (base == current) {
				return base
			}
		}
		return name
	}

	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			name := parts[0]
			if helpSeen[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			if closed[name] {
				t.Errorf("line %d: family %s reopened after its block ended", ln+1, name)
			}
			helpSeen[name] = true
			if current != "" && current != name {
				closed[current] = true
			}
			current, prevSeries = name, ""
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line[len("# TYPE "):], " ", 3)
			name := parts[0]
			if typeSeen[name] {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if len(parts) < 2 {
				t.Errorf("line %d: TYPE without a type: %q", ln+1, line)
			}
			typeSeen[name] = true
			if current != "" && current != name {
				closed[current] = true
			}
			current, prevSeries = name, ""
		case strings.HasPrefix(line, "#"):
			// comments are legal anywhere
		default:
			sp := strings.IndexAny(line, " \t")
			if sp < 0 {
				t.Errorf("line %d: sample without a value: %q", ln+1, line)
				continue
			}
			series := line[:sp]
			name := series
			if br := strings.IndexByte(series, '{'); br >= 0 {
				name = series[:br]
			}
			fam := sampleFamily(name)
			if fam != current {
				t.Errorf("line %d: sample %s outside its family block (current %q)", ln+1, series, current)
			}
			if !typeSeen[fam] {
				t.Errorf("line %d: sample %s before any TYPE for %s", ln+1, series, fam)
			}
			if seriesSeen[series] {
				t.Errorf("line %d: duplicate series %s", ln+1, series)
			}
			seriesSeen[series] = true
			// Histogram expansions (_bucket/_sum/_count) order buckets by
			// numeric le, not lexicographically; the sort rule applies to
			// plain samples of the family only.
			if name == fam {
				if prevSeries != "" && series < prevSeries {
					t.Errorf("line %d: series %s not sorted after %s", ln+1, series, prevSeries)
				}
				prevSeries = series
			}
		}
	}
	if len(seriesSeen) == 0 {
		t.Error("exposition contained no samples at all")
	}
}

// TestMetricsExpositionStaysParseable scrapes a coordinator that has every
// observability feature lit (fleet telemetry, RED, chaos export, flight,
// build info) and runs the full exposition-rule validator over the body.
func TestMetricsExpositionStaysParseable(t *testing.T) {
	_, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
		Enabled: true, LeaseTTL: 2 * time.Second, UnitShards: 4,
	}})
	startObsFleet(t, ts.URL, 2)
	chaosRun(t, ts.URL, chaosNetJob)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	validateExposition(t, body)

	// Spot checks that the families the plane added are actually present —
	// an empty exposition would vacuously pass the rules.
	for _, family := range []string{
		"qisimd_build_info", "qisimd_http_requests_total",
		"qisimd_fleet_workers", "qisimd_fleet_worker_units_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from exposition", family)
		}
	}
}
