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
		fold, err := core.newFold(toyPlan)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < n; start += 3 {
			states, events, err := core.RunWindow(context.Background(), toyPlan, start, min(start+3, n))
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range states {
				stop, err := fold.add(st, events[i])
				if err != nil {
					t.Fatal(err)
				}
				if stop != (start+i == n-1) {
					t.Fatalf("shard %d of %d: stop %v", start+i, n, stop)
				}
			}
		}
		got, st, err := fold.finish(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		if st.StopReason != simrun.StopCompleted || st.Completed != toyPlan.Shots {
			t.Fatalf("engineWorkers=%d: fold status %+v, want completed", engineWorkers, st)
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
		g, err := c.Claim(context.Background(), worker, "", 0)
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
		g, err := c.Claim(context.Background(), worker, "", 0)
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

// TestExecuteNoWorkersRunsLocal: a job admitted with no worker registered
// runs every unit on the local lane, returns RunFull's bytes and status,
// and counts as one degraded job.
func TestExecuteNoWorkersRunsLocal(t *testing.T) {
	c := NewCoordinator(Config{UnitShards: 3})
	core := toyCore(1)
	want, wantSt, err := core.RunFull(context.Background(), toyPlan)
	if err != nil {
		t.Fatal(err)
	}
	body, st, err := c.Execute(context.Background(), "toy", "kx", nil, core, toyPlan)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) || st != wantSt {
		t.Fatalf("no-worker run: %s %+v, want RunFull's %s %+v", body, st, want, wantSt)
	}
	if s := c.Stats(); s.Degraded != 1 || s.LocalUnits != 6 || s.Grants != 0 {
		t.Fatalf("stats %+v, want 1 degraded job and all 6 units local", s)
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
		g, err := c.Claim(context.Background(), "dead", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		dead = g
	}
	// Its renewals work while the lease lives...
	if err := c.Renew(context.Background(), "dead", dead.Key, dead.Start, dead.End); err != nil {
		t.Fatal(err)
	}
	// ...but after TTL + renewal expiry the sweep reclaims the unit. The
	// healthy worker checks in first, so the fleet stays live and the
	// sweep's broadcast does not hand the unit to the local lane.
	clk.Advance(3 * time.Second)
	c.Register(context.Background(), WorkerInfo{ID: "alive"})
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
		if g, _ := c.Claim(context.Background(), "fast", "", 0); g != nil {
			t.Fatalf("premature hedge: %+v", g)
		}
		clk.Advance(8 * time.Second)
		if err := c.Renew(context.Background(), "slow", slow.Key, slow.Start, slow.End); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(5 * time.Second) // 21s: straggler threshold crossed, lease live until 26s
	hedge, err := c.Claim(context.Background(), "fast", "", 0)
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

		// Admit the workers so Execute's admission check sees a live fleet
		// even if the worker goroutines haven't claimed yet.
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
	if want := g.End * toyPlan.ShardSize; o.status.Completed != want {
		t.Fatalf("completed %d, want prefix %d", o.status.Completed, want)
	}
}

// TestMidJobFleetLossFallsBackLocal: the fleet falls silent mid-job, and
// once no worker has been heard from for 2×LeaseTTL the sweep's broadcast
// hands the remaining units to the coordinator's local lane, bytes intact.
func TestMidJobFleetLossFallsBackLocal(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Hour, UnitShards: 8})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	c.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch := startExecute(c, context.Background(), "k1", core, toyPlan)
	report(t, c, core, "w1", waitGrant(t, c, "w1"))
	c.Sweep(clk.Advance(2 * time.Hour))

	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("local-fallback bytes differ\n got %s\nwant %s", o.body, want)
	}
	if st := c.Stats(); st.LocalUnits != 1 {
		t.Fatalf("local lane not exercised: %+v", st)
	}
}

// TestSilentWorkerIsLost: a worker that takes a lease and falls silent
// holds its job up for about 2¼ lease TTLs. Its lease expires at the first
// sweep past one TTL; at the first sweep past 2×TTL without contact it is
// lost, the sweep's broadcast hands every pending unit to the local lane,
// and the job returns RunFull's bytes and status. Its next contact makes
// it live again.
func TestSilentWorkerIsLost(t *testing.T) {
	clk := newFakeClock()
	const ttl = time.Second
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: ttl, UnitShards: 4})
	core := toyCore(1)
	want, wantSt, err := core.RunFull(context.Background(), toyPlan)
	if err != nil {
		t.Fatal(err)
	}

	c.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch := startExecute(c, context.Background(), "k-silent", core, toyPlan)
	waitGrant(t, c, "w1") // never renewed, never reported
	for i := 0; i < 7; i++ {
		c.Sweep(clk.Advance(ttl / 4))
	}
	if w := c.FleetSnapshot().Workers[0]; w.State != "healthy" {
		t.Fatalf("worker silent for 1¾ TTL reads %+v, want healthy", w)
	}
	c.Sweep(clk.Advance(ttl / 4))

	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) || o.status != wantSt {
		t.Fatalf("got %s %+v, want RunFull's %s %+v", o.body, o.status, want, wantSt)
	}
	if st := c.Stats(); st.LocalUnits != 4 || st.Expired != 1 {
		t.Fatalf("stats %+v, want the expired lease and all 4 units on the local lane", st)
	}
	if w := c.FleetSnapshot().Workers[0]; w.State != "lost" || w.Leases != 0 {
		t.Fatalf("silent worker reads %+v, want lost with no lease", w)
	}
	if g, err := c.Claim(context.Background(), "w1", "", 0); err != nil || g != nil {
		t.Fatalf("claim after the job: %+v, %v; want no work", g, err)
	}
	if w := c.FleetSnapshot().Workers[0]; w.State != "healthy" {
		t.Fatalf("worker heard from again reads %+v, want healthy", w)
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
