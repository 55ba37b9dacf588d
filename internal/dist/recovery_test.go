package dist

import (
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"qisim/internal/jobs"
	"qisim/internal/rescache"
)

// countingCore wraps a Core and counts shards actually executed through
// RunWindow — the proof that recovered ranges never re-run.
type countingCore struct {
	Core
	mu     sync.Mutex
	shards int
}

func (cc *countingCore) RunWindow(ctx context.Context, p Plan, start, end int) ([]json.RawMessage, []int, error) {
	cc.mu.Lock()
	cc.shards += end - start
	cc.mu.Unlock()
	return cc.Core.RunWindow(ctx, p, start, end)
}

func (cc *countingCore) executed() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.shards
}

// TestCoordinatorCrashRecovery simulates a coordinator crash with one unit
// reported, one lease outstanding, and two units untouched. The restarted
// coordinator reloads the reported unit from UnitDir (never re-running it),
// adopts the outstanding lease from the journal, and completes the job with
// bytes identical to standalone.
func TestCoordinatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	unitDir := filepath.Join(dir, "units")
	const key = "kr"

	ref := toyCore(1)
	want := runFullBytes(t, ref, toyPlan)

	jrn, err := jobs.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Append(jobs.OpSubmit, jobs.Kind("toy"), rescache.Key(key), nil); err != nil {
		t.Fatal(err)
	}

	// --- Life 1: report unit 0, leave unit 1's lease outstanding, crash.
	c1 := NewCoordinator(Config{Journal: jrn, UnitDir: unitDir,
		LeaseTTL: time.Minute, UnitShards: 4})
	c1.Register(context.Background(), WorkerInfo{ID: "w1"})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ch1 := startExecute(c1, ctx1, key, ref, toyPlan)

	g0 := waitGrant(t, c1, "w1")
	if g0.Start != 0 || g0.End != 4 {
		t.Fatalf("first grant [%d,%d), want [0,4)", g0.Start, g0.End)
	}
	report(t, c1, ref, "w1", g0)
	g1 := waitGrant(t, c1, "w1") // claimed, never reported
	if g1.Start != 4 {
		t.Fatalf("second grant start %d, want 4", g1.Start)
	}
	cancel1()
	if o := waitOutcome(t, ch1); o.err != nil || !o.status.Truncated {
		t.Fatalf("crash-cut Execute: err=%v status=%+v", o.err, o.status)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Life 2: reopen the journal, rebuild the coordinator.
	jrn2, err := jobs.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jrn2.Close()
	leases := jrn2.PendingLeases()
	if len(leases) != 1 || leases[0].Start != g1.Start || leases[0].End != g1.End || leases[0].Worker != "w1" {
		t.Fatalf("recovered leases = %+v, want exactly w1 [%d,%d)", leases, g1.Start, g1.End)
	}

	cc := &countingCore{Core: toyCore(1)}
	c2 := NewCoordinator(Config{Journal: jrn2, UnitDir: unitDir,
		LeaseTTL: time.Minute, UnitShards: 4})
	c2.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch2 := startExecute(c2, context.Background(), key, cc, toyPlan)

	// Unit 0 must come back from disk, not execution.
	deadline := time.Now().Add(10 * time.Second)
	for c2.Stats().FileReloads == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := c2.Stats(); st.FileReloads != 1 {
		t.Fatalf("unit 0 not reloaded from UnitDir: %+v", st)
	}

	// The adopted lease keeps unit 1 assigned to w1, so fresh claims get
	// units 2 and 3 only.
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		g := waitGrant(t, c2, "w1")
		if g.Start == g1.Start {
			t.Fatalf("adopted-leased unit re-granted: %+v", g)
		}
		seen[g.Start] = true
		report(t, c2, cc, "w1", g)
	}
	if len(seen) != 2 {
		t.Fatalf("grants covered %v, want two distinct units", seen)
	}
	// The in-flight worker (which survived the coordinator crash) finally
	// reports the adopted unit.
	report(t, c2, cc, "w1", g1)

	o := waitOutcome(t, ch2)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("recovered bytes differ\n got %s\nwant %s", o.body, want)
	}
	// 16 shards total; unit 0's 4 came from disk. Execution counter proves
	// the reported range never re-ran.
	if n := cc.executed(); n != 12 {
		t.Fatalf("executed %d shards after recovery, want 12", n)
	}
	// Clean completion garbage-collects the unit files.
	if ms, _ := filepath.Glob(filepath.Join(unitDir, "*.unit")); len(ms) != 0 {
		t.Fatalf("unit files not cleaned up: %v", ms)
	}
}

// TestSharedCacheAnswersUnitsBeforeDispatch: a job that stops short leaves
// its done units in the shared result cache, and a later run of the same
// key folds them without granting their leases. A completed run adds no
// unit entries: its own result answers any resubmission.
func TestSharedCacheAnswersUnitsBeforeDispatch(t *testing.T) {
	cache := rescache.New(64)
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)

	// First run: two of the four units report, then the run is canceled.
	c1 := NewCoordinator(Config{Cache: cache, LeaseTTL: time.Minute, UnitShards: 4})
	c1.Register(context.Background(), WorkerInfo{ID: "w1"})
	ctx, cancel := context.WithCancel(context.Background())
	ch1 := startExecute(c1, ctx, "kc", core, toyPlan)
	report(t, c1, core, "w1", waitGrant(t, c1, "w1"))
	report(t, c1, core, "w1", waitGrant(t, c1, "w1"))
	cancel()
	if o := waitOutcome(t, ch1); o.err != nil || !o.status.Truncated {
		t.Fatalf("first run: want a truncated result, got %+v err=%v", o.status, o.err)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("truncated run cached %d units, want its 2 done ones", n)
	}

	// Second run of the same key on a fresh coordinator: the two reported
	// units are cache hits, only the other two are granted.
	c2 := NewCoordinator(Config{Cache: cache, LeaseTTL: time.Minute, UnitShards: 4})
	c2.Register(context.Background(), WorkerInfo{ID: "w1"})
	ch2 := startExecute(c2, context.Background(), "kc", core, toyPlan)
	report(t, c2, core, "w1", waitGrant(t, c2, "w1"))
	report(t, c2, core, "w1", waitGrant(t, c2, "w1"))
	o := waitOutcome(t, ch2)
	if o.err != nil || string(o.body) != string(want) || o.status.Completed != toyPlan.Shots {
		t.Fatalf("cache-served run wrong: status %+v err=%v", o.status, o.err)
	}
	if s := c2.Stats(); s.CacheHits != 2 || s.Grants != 2 {
		t.Fatalf("expected 2 cache hits and 2 grants: %+v", s)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("completed run left %d unit entries, want the first run's 2", n)
	}
}

// TestFailedJobDoesNotPoisonRerun: a report whose states pass the digest
// but not the fold (valid JSON of the wrong type) fails its job, and the
// failed job leaves that unit in the shared cache or UnitDir; a late
// duplicate of the report writes it to UnitDir again. A rerun of the same
// key keeps only the stored units a fresh fold accepts, grants the rejected
// unit again and returns the bytes of RunFull.
func TestFailedJobDoesNotPoisonRerun(t *testing.T) {
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)
	ctx := context.Background()
	for _, tier := range []string{"cache", "unit-dir"} {
		t.Run(tier, func(t *testing.T) {
			cfg := Config{LeaseTTL: time.Minute, UnitShards: 4}
			if tier == "cache" {
				cfg.Cache = rescache.New(64)
			} else {
				cfg.UnitDir = t.TempDir()
			}
			c1 := NewCoordinator(cfg)
			c1.Register(ctx, WorkerInfo{ID: "w1"}) //nolint:errcheck
			ch := startExecute(c1, ctx, "kp", core, toyPlan)
			g0, g1, g2 := waitGrant(t, c1, "w1"), waitGrant(t, c1, "w1"), waitGrant(t, c1, "w1")
			report(t, c1, core, "w1", g0) // folded
			report(t, c1, core, "w1", g2) // done, never folded
			states := []json.RawMessage{[]byte(`"x"`), []byte(`"x"`), []byte(`"x"`), []byte(`"x"`)}
			body, err := EncodeUnitResult(UnitResult{Kind: g1.Kind, Key: g1.Key, Start: g1.Start, End: g1.End,
				States: states, Events: make([]int, 4), Worker: "w1"})
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.Report(ctx, "w1", body); err != nil {
				t.Fatal(err)
			}
			if o := waitOutcome(t, ch); o.err == nil {
				t.Fatalf("a fold-rejected unit must fail the job, got %+v", o.status)
			}
			if err := c1.Report(ctx, "w1", body); err != nil {
				t.Fatalf("late duplicate: %v", err)
			}

			c2 := NewCoordinator(cfg)
			c2.Register(ctx, WorkerInfo{ID: "w1"}) //nolint:errcheck
			ch2 := startExecute(c2, ctx, "kp", core, toyPlan)
			var starts []int
			deadline := time.Now().Add(10 * time.Second)
			for o := (*execOutcome)(nil); o == nil; {
				if time.Now().After(deadline) {
					t.Fatal("rerun did not finish")
				}
				for _, g := range drainClaims(t, c2, "w1") {
					starts = append(starts, g.Start)
					report(t, c2, core, "w1", g)
				}
				select {
				case got := <-ch2:
					o = &got
					if o.err != nil || string(o.body) != string(want) {
						t.Fatalf("rerun: err=%v body %s, want %s", o.err, o.body, want)
					}
				case <-time.After(time.Millisecond):
				}
			}
			if st := c2.Stats(); st.CacheHits+st.FileReloads != 2 || !slices.Equal(starts, []int{4, 12}) {
				t.Fatalf("rerun kept %d units and granted shards %v, want units 0 and 2 kept and 1 and 3 granted",
					st.CacheHits+st.FileReloads, starts)
			}
		})
	}
}
