package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"qisim/internal/metrics"
	"qisim/internal/obs"
)

// TestFleetSnapshotStatesAndJobs pins the /v1/fleet/status source of truth:
// worker rows (ID-sorted, healthy until 2×LeaseTTL without contact and lost
// from then on, lease counts, last-seen ages) and job rows (unit-state
// tallies and dispatch progress), without ever mutating coordinator state
// from the read path.
func TestFleetSnapshotStatesAndJobs(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4})
	core := toyCore(1)
	admit(c, "w-b", "w-a")

	snap := c.FleetSnapshot()
	if len(snap.Workers) != 2 || snap.Workers[0].ID != "w-a" || snap.Workers[1].ID != "w-b" {
		t.Fatalf("workers not ID-sorted: %+v", snap.Workers)
	}
	for _, w := range snap.Workers {
		if w.State != "healthy" || w.Leases != 0 {
			t.Fatalf("fresh worker row: %+v", w)
		}
		if w.LastSeenAgeMS != 0 {
			t.Fatalf("just-registered worker must have age 0, got %d", w.LastSeenAgeMS)
		}
	}

	ch := startExecute(c, context.Background(), "k-snapshot", core, toyPlan)
	g := waitGrant(t, c, "w-a")

	clk.Advance(2 * time.Second)
	snap = c.FleetSnapshot()
	if len(snap.Jobs) != 1 {
		t.Fatalf("want 1 job, got %+v", snap.Jobs)
	}
	j := snap.Jobs[0]
	if j.Kind != "toy" || j.Key != "k-snapshot" {
		t.Fatalf("job identity: %+v", j)
	}
	if j.Units != 4 || j.UnitsLeased != 1 || j.UnitsPending != 3 || j.UnitsDone != 0 {
		t.Fatalf("unit tallies: %+v", j)
	}
	if j.RequestedShots != toyPlan.Shots {
		t.Fatalf("requested shots: %+v", j)
	}
	var wa FleetWorker
	for _, w := range snap.Workers {
		if w.ID == "w-a" {
			wa = w
		}
	}
	if wa.Leases != 1 {
		t.Fatalf("w-a lease count: %+v", wa)
	}
	if wa.LastSeenAgeMS != 2000 {
		t.Fatalf("w-a last-seen age: want 2000ms, got %d", wa.LastSeenAgeMS)
	}

	report(t, c, core, "w-a", g)
	for {
		var err error
		if g, err = c.Claim(context.Background(), "w-a", "", 0); err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		report(t, c, core, "w-a", g)
	}
	if o := waitOutcome(t, ch); o.err != nil {
		t.Fatal(o.err)
	}
	snap = c.FleetSnapshot()
	if len(snap.Jobs) != 0 {
		t.Fatalf("finished job still listed: %+v", snap.Jobs)
	}

	// w-a was last heard from 2s after w-b, which is lost once it has been
	// silent for 2×TTL.
	clk.Advance(2*time.Minute - 2*time.Second - time.Millisecond)
	if snap = c.FleetSnapshot(); snap.Workers[0].State != "healthy" || snap.Workers[1].State != "healthy" {
		t.Fatalf("inside the liveness window: %+v", snap.Workers)
	}
	clk.Advance(time.Millisecond)
	snap = c.FleetSnapshot()
	if wa, wb := snap.Workers[0], snap.Workers[1]; wa.State != "healthy" || wb.State != "lost" || wb.LastSeenAgeMS != 120000 {
		t.Fatalf("w-b silent for 2×TTL: %+v, want w-a healthy and w-b lost at 120000ms", snap.Workers)
	}
}

// TestFleetSnapshotQuarantineIsReadOnly pins two properties: a quarantined
// worker is reported as "quarantined" with its remaining window, and
// reading the snapshot after the window elapses reports the lazy state
// (readmission is claim/report's job) WITHOUT flipping the stored
// quarantine bit — status scrapes must never advance fleet state.
func TestFleetSnapshotQuarantineIsReadOnly(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4, SpotCheck: 1})
	core := toyCore(1)
	admit(c, "liar")
	ch := startExecute(c, context.Background(), "k-snap-quarantine", core, toyPlan)
	g := waitGrant(t, c, "liar")
	if err := c.Report(context.Background(), "liar", forgedReport(t, g, "liar", 5_000_000)); err != nil {
		t.Fatal(err)
	}

	snap := c.FleetSnapshot()
	if len(snap.Workers) != 1 || snap.Workers[0].State != "quarantined" {
		t.Fatalf("want quarantined, got %+v", snap.Workers)
	}
	if left := snap.Workers[0].QuarantineLeftMS; left <= 0 || left > 4*60*1000 {
		t.Fatalf("quarantine window (4×TTL): %d ms", left)
	}

	clk.Advance(5 * time.Minute)
	snap = c.FleetSnapshot()
	if snap.Workers[0].State == "quarantined" {
		t.Fatalf("elapsed quarantine still reported: %+v", snap.Workers[0])
	}
	// The scrape must not have consumed the readmission: the counter
	// belongs to the claim/report path.
	if st := c.Stats(); st.QuarantineReadmits != 0 {
		t.Fatalf("snapshot flipped quarantine state: %+v", st)
	}
	g, err := c.Claim(context.Background(), "liar", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.QuarantineReadmits != 1 {
		t.Fatalf("claim did not readmit: %+v", st)
	}
	// Drive the readmitted worker (now honest) until the job completes:
	// leaving a claimed grant unreported would stall Execute.
	for g != nil {
		report(t, c, core, "liar", g)
		if g, err = c.Claim(context.Background(), "liar", "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if o := waitOutcome(t, ch); o.err != nil {
		t.Fatal(o.err)
	}
}

// TestRenewOfGoneLeaseDoesNotRevive pins the renewal/liveness split:
// renewing a lease that is gone answers ErrGone and does NOT count as
// contact, so a lost worker stays lost — only claims, reports and live
// renewals stamp it.
func TestRenewOfGoneLeaseDoesNotRevive(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4})
	admit(c, "w1")
	clk.Advance(2 * time.Minute)
	if snap := c.FleetSnapshot(); snap.Workers[0].State != "lost" {
		t.Fatalf("silence not visible: %+v", snap.Workers)
	}

	err := c.Renew(context.Background(), "w1", "no-such-job", 0, 4)
	if !errors.Is(err, ErrGone) {
		t.Fatalf("renew of unknown lease: want ErrGone, got %v", err)
	}
	if w := c.FleetSnapshot().Workers[0]; w.State != "lost" {
		t.Fatalf("renewal of a gone lease revived a lost worker: %+v", w)
	}
}

// TestTelemetryIntakeCheck pins what Report keeps of a report's telemetry:
// a chaos count that is not negative, and a histogram on the workers' bucket
// layout whose cumulative buckets never fall and never pass its count.
func TestTelemetryIntakeCheck(t *testing.T) {
	good := func() Telemetry {
		return Telemetry{Chaos: 1, UnitSeconds: metrics.HistogramSummary{
			Bounds:  metrics.DefaultLatencyBuckets(),
			Buckets: []uint64{0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}, Sum: 0.1, Count: 3}}
	}
	for name, edit := range map[string]func(*Telemetry){
		"foreign bounds":    func(t *Telemetry) { t.UnitSeconds.Bounds[10] = 101 },
		"short buckets":     func(t *Telemetry) { t.UnitSeconds.Buckets = t.UnitSeconds.Buckets[:10] },
		"falling buckets":   func(t *Telemetry) { t.UnitSeconds.Buckets[1] = 0; t.UnitSeconds.Buckets[0] = 1 },
		"bucket past count": func(t *Telemetry) { t.UnitSeconds.Buckets[10] = 4 },
		"negative chaos":    func(t *Telemetry) { t.Chaos = -1 },
	} {
		tel := good()
		edit(&tel)
		if tel.valid() {
			t.Errorf("%s: accepted %+v", name, tel)
		}
	}
	if tel := good(); !tel.valid() {
		t.Fatalf("a worker's own telemetry refused: %+v", tel)
	}
}

// TestCoordinatorFlightEvents drives one full manual fleet run — register,
// grant, expiry, retry, report — and pins the lease-lifecycle kinds the
// flight recorder must capture, each an event (a zero-length root span)
// with its attributes.
func TestCoordinatorFlightEvents(t *testing.T) {
	clk := newFakeClock()
	fr := obs.NewTracer(obs.TracerConfig{ID: "flight", MaxSpans: 256})
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4, Flight: fr})
	core := toyCore(1)
	admit(c, "w1")
	ch := startExecute(c, context.Background(), "k-flight", core, toyPlan)

	// First grant expires (lease.expire + unit.retry), then the worker
	// finishes the job cleanly (lease.grant + lease.done).
	waitGrant(t, c, "w1")
	clk.Advance(2 * time.Minute)
	admit(c, "w1") // still live: no local lane
	c.Sweep(clk.Now())
	// The expired unit requeues with backoff on the fake clock: keep
	// advancing past the not-before whenever no grant is available.
	var done *execOutcome
	for deadline := time.Now().Add(10 * time.Second); done == nil && time.Now().Before(deadline); {
		g, err := c.Claim(context.Background(), "w1", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			report(t, c, core, "w1", g)
			continue
		}
		select {
		case o := <-ch:
			done = &o
		default:
			clk.Advance(5 * time.Second)
			time.Sleep(time.Millisecond)
		}
	}
	if done == nil {
		t.Fatal("Execute did not finish")
	}
	if done.err != nil {
		t.Fatal(done.err)
	}

	dump := fr.Snapshot()
	if err := dump.Check(); err != nil {
		t.Fatal(err)
	}
	for kind, attrs := range map[string][]string{
		"worker.register": {"worker"},
		"lease.grant":     {"worker", "key", "start", "end", "hedge"},
		"lease.expire":    {"worker", "key", "start", "end"},
		"unit.retry":      {"start", "end", "attempts"},
		"lease.done":      {"worker", "key", "start", "end"},
	} {
		ev, ok := dump.Find(kind)
		if !ok {
			t.Errorf("flight recorder missing %q events:\n%s", kind, dump.TreeString())
			continue
		}
		if ev.Parent != 0 || ev.DurNS() != 0 {
			t.Errorf("%s is not an event: %+v", kind, ev)
		}
		for _, k := range attrs {
			if ev.Attr(k) == "" {
				t.Errorf("%s event lacks %q: %+v", kind, k, ev.Attrs)
			}
		}
	}
}

// TestQuarantinedMidJobTraceGraftsOnce pins trace stitching under
// mid-job quarantine: a worker's honestly reported (and audited) unit is
// grafted into the job trace exactly once, and after the worker is
// quarantined on a later forged unit, nothing of it is grafted again —
// neither a duplicate of the accepted unit nor the refused one.
func TestQuarantinedMidJobTraceGraftsOnce(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4, SpotCheck: 1})
	core := toyCore(1)
	admit(c, "shady")

	tracer := obs.NewTracer(obs.TracerConfig{ID: "job"})
	root := tracer.Start("executor", nil)
	ctx := obs.ContextWithSpan(context.Background(), tracer, root)
	ch := startExecute(c, ctx, "k-graft-once", core, toyPlan)

	// Unit 1: honest report WITH a worker trace. The spot-check passes
	// and the trace is grafted.
	g1 := waitGrant(t, c, "shady")
	states, events, err := core.RunWindow(context.Background(), g1.Plan, g1.Start, g1.End)
	if err != nil {
		t.Fatal(err)
	}
	wt := obs.NewTracer(obs.TracerConfig{ID: "shady"})
	wt.Start("unit.window", nil, obs.Int("start", g1.Start)).End()
	snap := wt.Snapshot()
	body, err := EncodeUnitResult(UnitResult{Kind: g1.Kind, Key: g1.Key, Start: g1.Start,
		End: g1.End, States: states, Events: events, Worker: "shady", Trace: &snap})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), "shady", body); err != nil {
		t.Fatal(err)
	}

	// Unit 2: forged — the audit quarantines the worker mid-job. Its
	// re-report (with the same trace attached) is refused with ErrGone.
	g2 := waitGrant(t, c, "shady")
	if err := c.Report(context.Background(), "shady", forgedReport(t, g2, "shady", 9_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), "shady", body); !errors.Is(err, ErrGone) {
		t.Fatalf("post-quarantine re-report: want ErrGone, got %v", err)
	}

	// The local lane finishes the job (the only worker is shunned).
	if o := waitOutcome(t, ch); o.err != nil {
		t.Fatal(o.err)
	}
	root.End()

	trace := tracer.Snapshot()
	grafts := 0
	for _, sp := range trace.Spans {
		if sp.Attr("worker") == "shady" {
			grafts++
			if sp.Name != "unit.window" {
				t.Errorf("unexpected grafted span %q", sp.Name)
			}
			if sp.Attr("unit") != fmt.Sprintf("%d", g1.Start/4) && sp.Attr("unit") == "" {
				t.Errorf("graft lost unit attribution: %+v", sp.Attrs)
			}
		}
	}
	if grafts != 1 {
		var names []string
		for _, sp := range trace.Spans {
			names = append(names, fmt.Sprintf("%s(worker=%s)", sp.Name, sp.Attr("worker")))
		}
		t.Fatalf("want exactly 1 grafted span from the quarantined worker, got %d: %s",
			grafts, strings.Join(names, ", "))
	}
	if err := trace.Check(); err != nil {
		t.Fatalf("grafted trace fails invariants: %v", err)
	}
}

// TestFleetTraceAddsUp: each unit of a traced fleet job records a dist.unit
// span from its grant to its acceptance, every worker window is grafted
// inside its unit's span, and so the job's per-stage self times sum to the
// job span. One worker on one engine lane keeps every stage sequential, so
// no two siblings overlap.
func TestFleetTraceAddsUp(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second, UnitShards: 3})
	admit(c, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(WorkerConfig{ID: "w1", Coordinator: c, PollInterval: 5 * time.Millisecond, Seed: 1, Trace: true,
		Cores: func(string, json.RawMessage) (Core, error) { return toyCore(1), nil }})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // ends by cancellation
	}()
	tracer := obs.NewTracer(obs.TracerConfig{ID: "job"})
	job := tracer.Start("executor", nil)
	if _, _, err := c.Execute(obs.ContextWithSpan(ctx, tracer, job), "toy", "k-trace", nil, toyCore(1), toyPlan); err != nil {
		t.Fatal(err)
	}
	job.End()
	cancel()
	<-done

	tr := tracer.Snapshot()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]obs.SpanData{}
	units := 0
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
		if sp.Name == "dist.unit" {
			units++
		}
	}
	grafts := 0
	for _, sp := range tr.Spans {
		if sp.Attr("worker") != "w1" {
			continue
		}
		grafts++
		if u := byID[sp.Parent]; u.Name != "dist.unit" || sp.StartNS < u.StartNS || sp.EndNS > u.EndNS {
			t.Errorf("window %s [%d,%d] lies outside its unit span %s [%d,%d]",
				sp.Name, sp.StartNS, sp.EndNS, u.Name, u.StartNS, u.EndNS)
		}
	}
	// 16 shards in units of 3.
	if units != 6 || grafts != 6 {
		t.Fatalf("%d unit spans and %d grafted windows, want 6 of each", units, grafts)
	}
	var sum int64
	for _, self := range selfNS(tr.Spans) {
		sum += self
	}
	if d := byID[job.ID()].DurNS(); sum != d {
		t.Fatalf("per-stage self times sum to %dns, the job span is %dns", sum, d)
	}
}

// selfNS is each span's duration less the union of its children's.
func selfNS(spans []obs.SpanData) map[uint64]int64 {
	kids := map[uint64][][2]int64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{sp.StartNS, sp.EndNS})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, sp := range spans {
		ks := kids[sp.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i][0] < ks[j][0] })
		covered, reach := int64(0), sp.StartNS
		for _, k := range ks {
			if s, e := max(k[0], reach), min(k[1], sp.EndNS); e > s {
				covered += e - s
				reach = e
			}
		}
		self[sp.ID] = sp.DurNS() - covered
	}
	return self
}
