package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qisim/internal/simrun"
)

// MarkDraining flags a worker as draining, as the probe loop does when the
// worker's readyz answers "draining": its leases stay valid but are no
// longer renewable and it receives no new grants.
func (c *Coordinator) MarkDraining(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerID]; w != nil {
		w.draining = true
	}
	c.cond.Broadcast()
}

// toyCore builds a deterministic int-sum core whose per-shard result
// encodes the shard identity, so any reordering, double-count, or replay
// shows up in the folded sum.
func toyCore(engineWorkers int) Core { return toyCoreWith(simrun.Options{Workers: engineWorkers}) }

// toyCoreWith builds the toy core on the given engine options, hooks
// included.
func toyCoreWith(opt simrun.Options) Core {
	return NewCore(CoreSpec[int]{
		Run: func(t *simrun.ShardTask) (int, int, error) {
			sum := 0
			for s := 0; t.Continue(s); s++ {
				sum += int(t.RNG.Int63() % 1000)
			}
			return sum + t.Index*1_000_000, 1, nil
		},
		Merge: func(dst *int, src int) { *dst += src },
		Finish: func(acc int, st simrun.Status) ([]byte, error) {
			return json.Marshal(struct {
				Sum    int           `json:"sum"`
				Status simrun.Status `json:"status"`
			}{acc, st})
		},
		Options: opt,
	})
}

var toyPlan = Plan{Shots: 2000, Seed: 7, ShardSize: 128}

// fakeClock is a mutex-guarded manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	return f.now
}

func TestUnitResultWireRoundTrip(t *testing.T) {
	u := UnitResult{Kind: "toy", Key: "k1", Start: 2, End: 4,
		States: []json.RawMessage{[]byte("1"), []byte("2")}, Events: []int{1, 1}, Worker: "w1"}
	b, err := EncodeUnitResult(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUnitResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "k1" || got.Start != 2 || got.End != 4 || len(got.States) != 2 || got.Version != 2 {
		t.Fatalf("round trip wrong: %+v", got)
	}
	// Corruption is rejected at the framing layer.
	b[len(b)-1] ^= 0xff
	if _, err := DecodeUnitResult(b); err == nil {
		t.Fatal("corrupted container must not decode")
	}
	// Mismatched state count is rejected.
	u.States = u.States[:1]
	if _, err := EncodeUnitResult(u); err == nil {
		t.Fatal("state/range mismatch must not encode")
	}
}

// runFullBytes runs the standalone reference path.
func runFullBytes(t *testing.T, core Core, p Plan) []byte {
	t.Helper()
	b, st, err := core.RunFull(context.Background(), p)
	if err != nil {
		t.Fatalf("RunFull: %v", err)
	}
	if st.StopReason == "" {
		t.Fatalf("RunFull status empty: %+v", st)
	}
	return b
}

// TestWindowFoldMatchesRunFull is the core determinism contract at the
// dist layer: RunWindow states folded in order == RunFull bytes.
func TestWindowFoldMatchesRunFull(t *testing.T) {
	for _, engineWorkers := range []int{1, 4} {
		core := toyCore(engineWorkers)
		want := runFullBytes(t, core, toyPlan)

		n := toyPlan.NumShards()
		fold, err := core.newFold()
		if err != nil {
			t.Fatal(err)
		}
		var tally simrun.Tally
		shard := 0
		for start := 0; start < n; start += 3 {
			end := start + 3
			if end > n {
				end = n
			}
			states, events, err := core.RunWindow(context.Background(), toyPlan, start, end)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range states {
				if err := fold.add(st); err != nil {
					t.Fatal(err)
				}
				tally.Add(toyPlan.ShardShots(shard), events[i])
				shard++
			}
		}
		got, err := fold.finish(simrun.Status{
			Requested: toyPlan.Shots, Completed: toyPlan.PrefixShots(n),
			StopReason: simrun.StopCompleted,
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("engineWorkers=%d: fold bytes differ\n got %s\nwant %s", engineWorkers, got, want)
		}
	}
}

// startExecute launches Execute in a goroutine and returns a channel with
// its outcome.
type execOutcome struct {
	body   []byte
	status simrun.Status
	err    error
}

func startExecute(c *Coordinator, ctx context.Context, key string, core Core, p Plan) chan execOutcome {
	ch := make(chan execOutcome, 1)
	go func() {
		b, st, err := c.Execute(ctx, "toy", key, nil, core, p)
		ch <- execOutcome{b, st, err}
	}()
	return ch
}

// drainClaims pulls every available grant for a worker.
func drainClaims(t *testing.T, c *Coordinator, worker string) []*LeaseGrant {
	t.Helper()
	var out []*LeaseGrant
	for {
		g, err := c.Claim(context.Background(), worker, "")
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			return out
		}
		out = append(out, g)
	}
}

// waitGrant polls Claim until the Execute goroutine has admitted the job
// and a grant is available.
func waitGrant(t *testing.T, c *Coordinator, worker string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g, err := c.Claim(context.Background(), worker, "")
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no grant became available")
	return nil
}

// report executes a grant's window and uploads the result.
func report(t *testing.T, c *Coordinator, core Core, worker string, g *LeaseGrant) {
	t.Helper()
	states, events, err := core.RunWindow(context.Background(), g.Plan, g.Start, g.End)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeUnitResult(UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start,
		End: g.End, States: states, Events: events, Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), worker, body); err != nil {
		t.Fatal(err)
	}
}

func waitOutcome(t *testing.T, ch chan execOutcome) execOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not finish")
		return execOutcome{}
	}
}

func TestExecuteNoWorkersIsTyped(t *testing.T) {
	c := NewCoordinator(Config{})
	core := toyCore(1)
	_, _, err := c.Execute(context.Background(), "toy", "kx", nil, core, toyPlan)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("want ErrNoWorkers, got %v", err)
	}
}

func TestExecuteManualFleetMatchesRunFull(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Second, UnitShards: 3})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	if err := c.Register(context.Background(), WorkerInfo{ID: "w1"}); err != nil {
		t.Fatal(err)
	}
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)

	// 16 shards at UnitShards=3 → 6 units; claim and report them all.
	deadline := time.Now().Add(10 * time.Second)
	done := 0
	for done < 6 && time.Now().Before(deadline) {
		grants := drainClaims(t, c, "w1")
		for _, g := range grants {
			report(t, c, core, "w1", g)
			done++
		}
		if len(grants) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("fleet bytes differ\n got %s\nwant %s", o.body, want)
	}
	if o.status.StopReason != simrun.StopCompleted || o.status.Completed != toyPlan.Shots {
		t.Fatalf("status wrong: %+v", o.status)
	}
}

// TestLeaseExpiryRequeuesAndRetries kills a worker mid-shard (it claims
// and never reports); the lease expires, the unit requeues with backoff,
// and a second worker completes the job with bytes identical to
// standalone.
func TestLeaseExpiryRequeuesAndRetries(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Second, UnitShards: 8})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	c.Register(context.Background(), WorkerInfo{ID: "dead"})
	c.Register(context.Background(), WorkerInfo{ID: "alive"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)

	// The doomed worker grabs the first unit and dies.
	var dead *LeaseGrant
	for dead == nil {
		g, err := c.Claim(context.Background(), "dead", "")
		if err != nil {
			t.Fatal(err)
		}
		dead = g
	}
	// Its renewals work while the lease lives...
	if err := c.Renew(context.Background(), "dead", dead.Key, dead.Start, dead.End); err != nil {
		t.Fatal(err)
	}
	// ...but after TTL + renewal expiry the sweep reclaims the unit.
	clk.Advance(3 * time.Second)
	c.Sweep(clk.Now())
	if err := c.Renew(context.Background(), "dead", dead.Key, dead.Start, dead.End); !errors.Is(err, ErrGone) {
		t.Fatalf("post-expiry renew: want ErrGone, got %v", err)
	}

	// Backoff gates the requeued unit; jump past it and let the healthy
	// worker finish everything.
	clk.Advance(time.Minute)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		grants := drainClaims(t, c, "alive")
		for _, g := range grants {
			report(t, c, core, "alive", g)
		}
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if string(o.body) != string(want) {
				t.Fatalf("retried bytes differ\n got %s\nwant %s", o.body, want)
			}
			st := c.Stats()
			if st.Expired == 0 || st.UnitRetries == 0 {
				t.Fatalf("expiry path not exercised: %+v", st)
			}
			return
		default:
		}
		clk.Advance(time.Second)
		c.Sweep(clk.Now())
	}
	t.Fatal("job did not finish")
}

// TestDuplicateReportIsDeduplicated reports the same unit twice (and once
// more after job completion): accepted once, never double-counted.
func TestDuplicateReportIsDeduplicated(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Second, UnitShards: 8})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	c.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)

	// 16 shards at UnitShards=8 → 2 units; finish the first one twice.
	g := waitGrant(t, c, "w1")
	states, events, err := core.RunWindow(context.Background(), g.Plan, g.Start, g.End)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeUnitResult(UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start,
		End: g.End, States: states, Events: events, Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), "w1", body); err != nil {
		t.Fatal(err)
	}
	// Same unit again while the job is live: acknowledged, not recounted.
	if err := c.Report(context.Background(), "w2", body); err != nil {
		t.Fatalf("duplicate report must be acknowledged, got %v", err)
	}
	report(t, c, core, "w1", waitGrant(t, c, "w1"))
	o := waitOutcome(t, ch)
	if o.err != nil || string(o.body) != string(want) {
		t.Fatalf("deduped bytes differ (err=%v)\n got %s\nwant %s", o.err, o.body, want)
	}
	// A late report after completion is an orphan ack, not an error.
	if err := c.Report(context.Background(), "w1", body); err != nil {
		t.Fatalf("late report: %v", err)
	}
	if st := c.Stats(); st.DupReports != 1 || st.UnitsDone != 2 {
		t.Fatalf("dedupe counters wrong: %+v", st)
	}
}

// TestHedgedStealFirstReportWins: with no pending work left, an old
// straggler lease is hedge-granted to a second worker; whichever reports
// first wins and the loser's duplicate is dropped.
func TestHedgedStealFirstReportWins(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: 10 * time.Second, UnitShards: 16})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	c.Register(context.Background(), WorkerInfo{ID: "slow"})
	c.Register(context.Background(), WorkerInfo{ID: "fast"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)

	slow := waitGrant(t, c, "slow")
	// Not yet old enough to hedge (2×TTL), while the slow worker renews its
	// lease across that threshold.
	for i := 0; i < 2; i++ {
		if g, _ := c.Claim(context.Background(), "fast", ""); g != nil {
			t.Fatalf("premature hedge: %+v", g)
		}
		clk.Advance(8 * time.Second)
		if err := c.Renew(context.Background(), "slow", slow.Key, slow.Start, slow.End); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(5 * time.Second) // 21s: straggler threshold crossed, lease live until 26s
	hedge, err := c.Claim(context.Background(), "fast", "")
	if err != nil || hedge == nil {
		t.Fatalf("expected hedged grant, got %+v err=%v", hedge, err)
	}
	if hedge.Start != slow.Start || hedge.End != slow.End {
		t.Fatalf("hedge covers [%d,%d), want [%d,%d)", hedge.Start, hedge.End, slow.Start, slow.End)
	}
	report(t, c, core, "fast", hedge)
	o := waitOutcome(t, ch)
	if o.err != nil || string(o.body) != string(want) {
		t.Fatalf("hedged bytes differ (err=%v)", o.err)
	}
	// The slow worker's late report dedupes; its renewal says gone.
	report(t, c, core, "slow", slow)
	if err := c.Renew(context.Background(), "slow", slow.Key, slow.Start, slow.End); !errors.Is(err, ErrGone) {
		t.Fatalf("want ErrGone for finished unit, got %v", err)
	}
	if st := c.Stats(); st.Steals != 1 {
		t.Fatalf("steal not counted: %+v", st)
	}
}

// TestProbeEvictionRequeuesAndReadmits: consecutive probe failures evict a
// worker (leases requeue immediately); a successful probe re-admits it.
func TestProbeEvictionRequeuesAndReadmits(t *testing.T) {
	clk := newFakeClock()
	var probeMu sync.Mutex
	probeErr := map[string]error{}
	probe := func(_ context.Context, addr string) (string, error) {
		probeMu.Lock()
		defer probeMu.Unlock()
		if err := probeErr[addr]; err != nil {
			return "", err
		}
		return "ok", nil
	}
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Hour, Probe: probe, UnitShards: 16})
	core := toyCore(1)

	c.Register(context.Background(), WorkerInfo{ID: "w1", Addr: "http://w1"})
	// A second healthy worker keeps the fleet alive so eviction exercises
	// requeue/readmission rather than the zero-worker local fallback.
	c.Register(context.Background(), WorkerInfo{ID: "keeper", Addr: "http://keeper"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)
	g := waitGrant(t, c, "w1")

	probeMu.Lock()
	probeErr["http://w1"] = errors.New("connection refused")
	probeMu.Unlock()
	c.ProbeAll(context.Background())
	c.ProbeAll(context.Background())
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("two failures must not evict: %+v", st)
	}
	c.ProbeAll(context.Background())
	st := c.Stats()
	if st.Evictions != 1 || st.Expired == 0 {
		t.Fatalf("eviction must requeue the lease: %+v", st)
	}
	if err := c.Renew(context.Background(), "w1", g.Key, g.Start, g.End); !errors.Is(err, ErrGone) {
		t.Fatalf("evicted worker's renew: want ErrGone, got %v", err)
	}

	// The partition heals: probe succeeds, worker re-admitted and claims
	// the requeued unit (backoff gate jumped).
	probeMu.Lock()
	delete(probeErr, "http://w1")
	probeMu.Unlock()
	c.ProbeAll(context.Background())
	if st := c.Stats(); st.Readmits != 1 {
		t.Fatalf("readmission not counted: %+v", st)
	}
	clk.Advance(time.Minute)
	g2, err := c.Claim(context.Background(), "w1", "")
	if err != nil || g2 == nil {
		t.Fatalf("re-admitted worker got no work: %+v err=%v", g2, err)
	}
	report(t, c, core, "w1", g2)
	if o := waitOutcome(t, ch); o.err != nil {
		t.Fatal(o.err)
	}
}

// TestDrainingWorkerIsLeaseNonRenewable: a draining worker keeps its
// lease but renewals stop extending, and it receives no new grants.
func TestDrainingWorkerIsLeaseNonRenewable(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: 10 * time.Second, UnitShards: 4})
	core := toyCore(1)

	c.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)
	g := waitGrant(t, c, "w1")
	// w2 joins before w1 drains, so the fleet never runs out of live
	// workers: with none left, Execute's local lane could take the unit
	// the sweep below requeues before w2 claims it.
	c.Register(context.Background(), WorkerInfo{ID: "w2"})
	c.MarkDraining("w1")

	// Renewal is accepted (the worker is alive, finishing its unit) but
	// does not extend: after the original TTL the lease expires.
	if err := c.Renew(context.Background(), "w1", g.Key, g.Start, g.End); err != nil {
		t.Fatalf("draining renew must be accepted: %v", err)
	}
	if g2, _ := c.Claim(context.Background(), "w1", ""); g2 != nil {
		t.Fatalf("draining worker must get no new work, got %+v", g2)
	}
	clk.Advance(11 * time.Second)
	c.Sweep(clk.Now())
	if err := c.Renew(context.Background(), "w1", g.Key, g.Start, g.End); !errors.Is(err, ErrGone) {
		t.Fatalf("lease must expire at original TTL: got %v", err)
	}
	if st := c.Stats(); st.Renewals != 0 {
		t.Fatalf("draining renew must not count as an extension: %+v", st)
	}

	// Cancel the hanging job.
	report(t, c, core, "w2", mustGrant(t, c, clk, "w2"))
	drainAll(t, c, core, "w2", ch)
}

func mustGrant(t *testing.T, c *Coordinator, clk *fakeClock, worker string) *LeaseGrant {
	t.Helper()
	c.Register(context.Background(), WorkerInfo{ID: worker})
	clk.Advance(time.Minute)
	c.Sweep(clk.Now())
	g, err := c.Claim(context.Background(), worker, "")
	if err != nil || g == nil {
		t.Fatalf("no grant for %s (err=%v)", worker, err)
	}
	return g
}

func drainAll(t *testing.T, c *Coordinator, core Core, worker string, ch chan execOutcome) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range drainClaims(t, c, worker) {
			report(t, c, core, worker, g)
		}
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatal(o.err)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("job did not finish")
}

// TestInProcessWorkerFleet runs real Worker loops against the coordinator
// (direct CoordinatorAPI, no HTTP): bytes match standalone, for 1 and 4
// fleet workers.
func TestInProcessWorkerFleet(t *testing.T) {
	for _, fleet := range []int{1, 4} {
		core := toyCore(1)
		want := runFullBytes(t, core, toyPlan)
		c := NewCoordinator(Config{LeaseTTL: 2 * time.Second, UnitShards: 2})
		ctx, cancel := context.WithCancel(context.Background())
		c.Start(ctx)

		// Pre-register so Execute's admission check sees a live fleet even
		// if the worker goroutines haven't called Register yet.
		for i := 0; i < fleet; i++ {
			if err := c.Register(ctx, WorkerInfo{ID: fmt.Sprintf("w%d", i)}); err != nil {
				t.Fatal(err)
			}
		}

		cores := func(kind string, _ json.RawMessage) (Core, error) {
			if kind != "toy" {
				return nil, fmt.Errorf("unknown kind %q", kind)
			}
			return toyCore(1), nil
		}
		var wg sync.WaitGroup
		for i := 0; i < fleet; i++ {
			w, err := NewWorker(WorkerConfig{
				ID: fmt.Sprintf("w%d", i), Coordinator: c, Cores: cores,
				PollInterval: 2 * time.Millisecond, Seed: int64(i + 1), Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(ctx)
			}()
		}
		body, st, err := c.Execute(ctx, "toy", "k1", nil, core, toyPlan)
		cancel()
		wg.Wait()
		if err != nil {
			t.Fatalf("fleet=%d: %v", fleet, err)
		}
		if string(body) != string(want) {
			t.Fatalf("fleet=%d: bytes differ\n got %s\nwant %s", fleet, body, want)
		}
		if st.Completed != toyPlan.Shots {
			t.Fatalf("fleet=%d: status %+v", fleet, st)
		}
	}
}

// TestConvergenceBoundaryMatchesStandalone: with a convergence target the
// distributed fold must stop at the same shard boundary as RunSharded, and a
// budget below the default 1,000-shot convergence floor runs in full on
// both paths rather than failing as infeasible.
func TestConvergenceBoundaryMatchesStandalone(t *testing.T) {
	for _, tc := range []struct {
		name          string
		plan          Plan
		wantConverged bool
	}{
		// The toy core counts one event per shard, so its relative standard
		// error after k shards is about 1/√k: 0.2 converges near shard 25.
		{"converges", Plan{Shots: 4000, Seed: 5, ShardSize: 128, TargetRelStdErr: 0.2}, true},
		{"below-floor", Plan{Shots: 500, Seed: 5, ShardSize: 128, TargetRelStdErr: 0.1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core := toyCore(1)
			want, wantSt, err := core.RunFull(context.Background(), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if wantSt.Converged != tc.wantConverged || (!tc.wantConverged && wantSt.Completed != tc.plan.Shots) {
				t.Fatalf("standalone status %+v, want converged=%v", wantSt, tc.wantConverged)
			}

			c := NewCoordinator(Config{LeaseTTL: 5 * time.Second, UnitShards: 3})
			c.Register(context.Background(), WorkerInfo{ID: "w1"})
			ch := startExecute(c, context.Background(), "kc", core, tc.plan)
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				for _, g := range drainClaims(t, c, "w1") {
					report(t, c, core, "w1", g)
				}
				select {
				case o := <-ch:
					if o.err != nil {
						t.Fatal(o.err)
					}
					if o.status != wantSt {
						t.Fatalf("dist status %+v, standalone %+v", o.status, wantSt)
					}
					if string(o.body) != string(want) {
						t.Fatalf("bytes differ\n got %s\nwant %s", o.body, want)
					}
					return
				default:
					time.Sleep(time.Millisecond)
				}
			}
			t.Fatal("job did not finish")
		})
	}
}

// TestExecuteCancellationTruncates: canceling Execute's ctx returns the
// folded prefix as a Truncated partial.
func TestExecuteCancellationTruncates(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Hour, UnitShards: 4})
	core := toyCore(1)
	c.Register(context.Background(), WorkerInfo{ID: "w1"})
	ctx, cancel := context.WithCancel(context.Background())
	ch := startExecute(c, ctx, "k1", core, toyPlan)

	// Complete exactly the first unit, then cancel.
	g := waitGrant(t, c, "w1")
	if g.Start != 0 {
		t.Fatalf("first grant wrong: %+v", g)
	}
	report(t, c, core, "w1", g)
	cancel()
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !o.status.Truncated || o.status.StopReason != simrun.StopCanceled {
		t.Fatalf("want truncated cancel, got %+v", o.status)
	}
	if o.status.Completed != toyPlan.PrefixShots(g.End) {
		t.Fatalf("completed %d, want prefix %d", o.status.Completed, toyPlan.PrefixShots(g.End))
	}
}

// TestMidJobFleetLossFallsBackLocal: the fleet dies mid-job (eviction) and
// the remaining units run on the coordinator's local lane, bytes intact.
func TestMidJobFleetLossFallsBackLocal(t *testing.T) {
	var probeMu sync.Mutex
	dead := false
	probe := func(_ context.Context, _ string) (string, error) {
		probeMu.Lock()
		defer probeMu.Unlock()
		if dead {
			return "", errors.New("unreachable")
		}
		return "ok", nil
	}
	c := NewCoordinator(Config{LeaseTTL: time.Hour, UnitShards: 8, Probe: probe})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	c.Register(context.Background(), WorkerInfo{ID: "w1", Addr: "http://w1"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)
	g := waitGrant(t, c, "w1")
	report(t, c, core, "w1", g)

	probeMu.Lock()
	dead = true
	probeMu.Unlock()
	for i := 0; i < probeFailLimit; i++ {
		c.ProbeAll(context.Background())
	}

	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("local-fallback bytes differ\n got %s\nwant %s", o.body, want)
	}
	if st := c.Stats(); st.LocalUnits == 0 || st.Evictions != 1 {
		t.Fatalf("local lane not exercised: %+v", st)
	}
}

// TestExecuteProgressFrontier: the progress callback must track the
// committed shard frontier — monotone, never past the fold, ending at the
// full shot count on a completed run.
func TestExecuteProgressFrontier(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second, UnitShards: 2})
	c.Register(context.Background(), WorkerInfo{ID: "w1"})

	var mu sync.Mutex
	var completed []int
	progress := func(done, requested int) {
		if requested != toyPlan.Shots {
			t.Errorf("progress requested = %d, want %d", requested, toyPlan.Shots)
		}
		mu.Lock()
		completed = append(completed, done)
		mu.Unlock()
	}
	core := toyCoreWith(simrun.Options{Workers: 1, Progress: progress})
	ch := startExecute(c, context.Background(), "kp", core, toyPlan)

	deadline := time.Now().Add(10 * time.Second)
	var out execOutcome
	done := false
	for !done && time.Now().Before(deadline) {
		for _, g := range drainClaims(t, c, "w1") {
			report(t, c, core, "w1", g)
		}
		select {
		case out = <-ch:
			done = true
		case <-time.After(time.Millisecond):
		}
	}
	if !done {
		t.Fatal("Execute did not finish")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(completed) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(completed); i++ {
		if completed[i] < completed[i-1] {
			t.Fatalf("progress regressed: %v", completed)
		}
	}
	last := completed[len(completed)-1]
	if last != toyPlan.Shots {
		t.Fatalf("final progress = %d, want %d (all %v)", last, toyPlan.Shots, completed)
	}
	if out.status.Completed != toyPlan.Shots {
		t.Fatalf("status %+v", out.status)
	}
}
