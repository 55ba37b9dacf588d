package dist

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"qisim/internal/simrun"
)

// countingCore wraps a Core and counts shards actually executed through
// RunWindow — the proof that a resumed prefix never re-runs.
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

// snapshots records every Checkpoint callback as the ResumeState a
// snapshot of it restores, serializing the live accumulator at once as
// checkpoint.SnapshotOf does.
type snapshots struct {
	t     *testing.T
	mu    sync.Mutex
	saves []*simrun.ResumeState
	final []bool
}

func (s *snapshots) hook(st simrun.CheckpointState) {
	b, err := json.Marshal(st.State)
	if err != nil {
		s.t.Error(err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = append(s.saves, &simrun.ResumeState{Shards: st.Shards, Shots: st.Shots,
		Events: st.Events, NoConverge: st.NoConverge, StateJSON: b})
	s.final = append(s.final, st.Final)
}

// shards lists the prefix length of every save, a Final one marked by a
// negative sign.
func (s *snapshots) shards() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.saves))
	for i, r := range s.saves {
		out[i] = r.Shards
		if s.final[i] {
			out[i] = -r.Shards
		}
	}
	return out
}

func (s *snapshots) last() *simrun.ResumeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves[len(s.saves)-1]
}

// driveOneByOne claims and reports the job's units one at a time, always
// the lowest pending one, until Execute returns, and lists the granted
// unit starts.
func driveOneByOne(t *testing.T, c *Coordinator, core Core, ch chan execOutcome) (execOutcome, []int) {
	t.Helper()
	var starts []int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case o := <-ch:
			return o, starts
		default:
		}
		g, err := c.Claim(context.Background(), "w1", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		starts = append(starts, g.Start)
		report(t, c, core, "w1", g)
	}
	t.Fatal("job did not finish")
	return execOutcome{}, nil
}

// fleetCrash runs the first life of a coordinator crash: unit 0 of plan is
// reported and folded, unit 1 is claimed and never reported, and the run
// is cut (canceled). It returns the checkpoint the cut left behind.
func fleetCrash(t *testing.T, plan Plan) *snapshots {
	t.Helper()
	snaps := &snapshots{t: t}
	core := toyCoreWith(simrun.Options{Workers: 1, Checkpoint: snaps.hook})
	c := NewCoordinator(Config{LeaseTTL: time.Minute, UnitShards: 4})
	c.Register(context.Background(), WorkerInfo{ID: "w1"}) //nolint:errcheck
	ctx, cancel := context.WithCancel(context.Background())
	ch := startExecute(c, ctx, "kr", core, plan)
	g0 := waitGrant(t, c, "w1")
	if g0.Start != 0 || g0.End != 4 {
		t.Fatalf("first grant [%d,%d), want [0,4)", g0.Start, g0.End)
	}
	report(t, c, core, "w1", g0)
	if g1 := waitGrant(t, c, "w1"); g1.Start != 4 { // claimed, never reported
		t.Fatalf("second grant start %d, want 4", g1.Start)
	}
	cancel()
	if o := waitOutcome(t, ch); o.err != nil || !o.status.Truncated {
		t.Fatalf("crash-cut Execute: err=%v status=%+v", o.err, o.status)
	}
	// One save for the one fold advance, one Final flush at the cut.
	if got := snaps.shards(); !slices.Equal(got, []int{4, -4}) {
		t.Fatalf("saves at shards %v, want [4 -4] (a negative one is Final)", got)
	}
	return snaps
}

// TestCoordinatorCrashRecovery: a coordinator crash with one unit folded
// and one lease outstanding leaves the job's checkpoint at shard 4 of 16.
// The next life's Execute resumes from it: it runs exactly the 12 shards
// past the frontier, saves once per fold advance and once at the end, and
// returns the bytes of RunFull.
func TestCoordinatorCrashRecovery(t *testing.T) {
	want := runFullBytes(t, toyCore(1), toyPlan)
	snap := fleetCrash(t, toyPlan).last()

	snaps := &snapshots{t: t}
	cc := &countingCore{Core: toyCoreWith(simrun.Options{Workers: 1, Resume: snap, Checkpoint: snaps.hook})}
	c := NewCoordinator(Config{LeaseTTL: time.Minute, UnitShards: 4})
	c.Register(context.Background(), WorkerInfo{ID: "w1"}) //nolint:errcheck
	o, starts := driveOneByOne(t, c, cc, startExecute(c, context.Background(), "kr", cc, toyPlan))
	if o.err != nil || string(o.body) != string(want) {
		t.Fatalf("resumed run: err=%v\n got %s\nwant %s", o.err, o.body, want)
	}
	if n := cc.executed(); n != 12 || !slices.Equal(starts, []int{4, 8, 12}) {
		t.Fatalf("executed %d shards in units %v after recovery, want 12 in [4 8 12]", n, starts)
	}
	if got := snaps.shards(); !slices.Equal(got, []int{8, 12, -16}) {
		t.Fatalf("saves at shards %v, want [8 12 -16]", got)
	}
}

// TestResumeAcrossLanes: a snapshot written by either lane resumes on
// either lane with the bytes of an uninterrupted RunFull — a standalone
// snapshot that ends mid-unit on the fleet, a fleet snapshot in RunFull,
// and a fleet snapshot of a plan that stops on its convergence guard.
func TestResumeAcrossLanes(t *testing.T) {
	converging := toyPlan
	converging.TargetRelStdErr = 0.3 // one event per shard: stops at shard 12 of 16

	// A serial standalone run commits shard by shard; keep its save at 6.
	standalone := &snapshots{t: t}
	if _, _, err := toyCoreWith(simrun.Options{Workers: 1, Checkpoint: standalone.hook}).RunFull(context.Background(), toyPlan); err != nil {
		t.Fatal(err)
	}
	var midUnit *simrun.ResumeState
	for _, r := range standalone.saves {
		if r.Shards == 6 {
			midUnit = r
		}
	}
	if midUnit == nil {
		t.Fatalf("no standalone save at shard 6: %v", standalone.shards())
	}

	for _, tc := range []struct {
		name string
		plan Plan
		snap *simrun.ResumeState
		// fleet resumes on a coordinator with wantStarts granted; otherwise
		// on RunFull.
		fleet      bool
		wantStarts []int
	}{
		{"standalone-mid-unit-on-fleet", toyPlan, midUnit, true, []int{6, 10, 14}},
		{"fleet-on-runfull", toyPlan, fleetCrash(t, toyPlan).last(), false, nil},
		{"fleet-converging-on-fleet", converging, fleetCrash(t, converging).last(), true, []int{4, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantSt, err := toyCore(1).RunFull(context.Background(), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if tc.plan.TargetRelStdErr > 0 && (!wantSt.Converged || wantSt.Completed != 12*128) {
				t.Fatalf("converging plan's standalone status %+v, want converged at 1536 shots", wantSt)
			}
			cc := &countingCore{Core: toyCoreWith(simrun.Options{Workers: 1, Resume: tc.snap})}
			var o execOutcome
			if tc.fleet {
				c := NewCoordinator(Config{LeaseTTL: time.Minute, UnitShards: 4})
				c.Register(context.Background(), WorkerInfo{ID: "w1"}) //nolint:errcheck
				var starts []int
				o, starts = driveOneByOne(t, c, cc, startExecute(c, context.Background(), "kr", cc, tc.plan))
				if !slices.Equal(starts, tc.wantStarts) {
					t.Fatalf("granted units %v, want %v", starts, tc.wantStarts)
				}
			} else {
				o.body, o.status, o.err = cc.RunFull(context.Background(), tc.plan)
			}
			if o.err != nil || o.status != wantSt || string(o.body) != string(want) {
				t.Fatalf("resumed: err=%v status %+v, want %+v\n got %s\nwant %s", o.err, o.status, wantSt, o.body, want)
			}
		})
	}
}

// TestFailedJobDoesNotPoisonRerun: a report whose states pass the digest
// but not the fold (valid JSON of the wrong type) fails its job. The job's
// checkpoint holds only what its fold accepted, so a rerun resumed from it
// runs every unit past that frontier again, the rejected one and a done
// but unfolded one included, and returns the bytes of RunFull.
func TestFailedJobDoesNotPoisonRerun(t *testing.T) {
	want := runFullBytes(t, toyCore(1), toyPlan)
	ctx := context.Background()
	snaps := &snapshots{t: t}
	core := toyCoreWith(simrun.Options{Workers: 1, Checkpoint: snaps.hook})
	c1 := NewCoordinator(Config{LeaseTTL: time.Minute, UnitShards: 4})
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
	if got := snaps.shards(); !slices.Equal(got, []int{4}) {
		t.Fatalf("saves at shards %v, want [4] (no Final flush for a failed job)", got)
	}

	rerun := toyCoreWith(simrun.Options{Workers: 1, Resume: snaps.last()})
	c2 := NewCoordinator(Config{LeaseTTL: time.Minute, UnitShards: 4})
	c2.Register(ctx, WorkerInfo{ID: "w1"}) //nolint:errcheck
	o, starts := driveOneByOne(t, c2, rerun, startExecute(c2, ctx, "kp", rerun, toyPlan))
	if o.err != nil || string(o.body) != string(want) || !slices.Equal(starts, []int{4, 8, 12}) {
		t.Fatalf("rerun: err=%v units %v, want [4 8 12]\n got %s\nwant %s", o.err, starts, o.body, want)
	}
}

// finalSave returns the one Final save of snaps, failing unless there is
// exactly one and no non-final save carries its prefix: the commit that
// stops a run leaves its save to the Final flush.
func (s *snapshots) finalSave(lane string) *simrun.ResumeState {
	s.t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var final *simrun.ResumeState
	for i, r := range s.saves {
		if s.final[i] {
			if final != nil {
				s.t.Fatalf("%s: a second Final flush", lane)
			}
			final = r
		}
	}
	if final == nil {
		s.t.Fatalf("%s: no Final flush", lane)
	}
	for i, r := range s.saves {
		if !s.final[i] && r.Shards == final.Shards {
			s.t.Fatalf("%s: a non-final save repeats the Final prefix of %d shards", lane, r.Shards)
		}
	}
	return final
}

// TestCheckpointCadenceAcrossLanes: a completed, a converged and a canceled
// run each flush exactly one Final checkpoint on RunFull and on Execute (a
// coordinator with no workers), no non-final save repeats the Final prefix,
// and both lanes hand the same Final state: shards, shots, events, latch
// and marshaled accumulator.
func TestCheckpointCadenceAcrossLanes(t *testing.T) {
	converging := toyPlan
	converging.TargetRelStdErr = 0.3 // one event per shard: stops at shard 12 of 16
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		plan Plan
		stop string
	}{
		{"completed", context.Background(), toyPlan, simrun.StopCompleted},
		{"converged", context.Background(), converging, simrun.StopConverged},
		{"canceled", canceled, toyPlan, simrun.StopCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finals []*simrun.ResumeState
			for _, lane := range []string{"RunFull", "Execute"} {
				snaps := &snapshots{t: t}
				core := toyCoreWith(simrun.Options{Workers: 1, Checkpoint: snaps.hook})
				var st simrun.Status
				var err error
				if lane == "RunFull" {
					_, st, err = core.RunFull(tc.ctx, tc.plan)
				} else {
					_, st, err = NewCoordinator(Config{UnitShards: 4}).Execute(tc.ctx, "toy", "kc", nil, core, tc.plan)
				}
				if err != nil || st.StopReason != tc.stop {
					t.Fatalf("%s: err=%v status %+v, want %s", lane, err, st, tc.stop)
				}
				finals = append(finals, snaps.finalSave(lane))
			}
			if !reflect.DeepEqual(finals[0], finals[1]) {
				t.Fatalf("Final states differ:\nRunFull %+v (%s)\nExecute %+v (%s)",
					finals[0], finals[0].StateJSON, finals[1], finals[1].StateJSON)
			}
		})
	}
}

// TestResumeFinalSnapshotOnBothLanes: a run whose guard is first met on its
// last shard reports converged, and RunFull and Execute (a coordinator with
// no workers) resumed from its own Final snapshot return its bytes,
// converged included, without running a shard on the fleet lane.
func TestResumeFinalSnapshotOnBothLanes(t *testing.T) {
	// One event per shard: the relative standard error after k of the 16
	// shards is about 1/√k, 0.257 at 15 and 0.249 at 16.
	plan := Plan{Shots: 2000, Seed: 7, ShardSize: 128, TargetRelStdErr: 0.25}
	snaps := &snapshots{t: t}
	want, wantSt, err := toyCoreWith(simrun.Options{Workers: 1, Checkpoint: snaps.hook}).RunFull(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !wantSt.Converged || wantSt.Completed != plan.Shots {
		t.Fatalf("cold status %+v, want converged on the last shard", wantSt)
	}
	if got := snaps.shards(); got[len(got)-1] != -16 {
		t.Fatalf("saves at shards %v, want a Final flush of all 16 last", got)
	}
	cc := &countingCore{Core: toyCoreWith(simrun.Options{Workers: 1, Resume: snaps.last()})}
	for _, lane := range []string{"RunFull", "Execute"} {
		var o execOutcome
		if lane == "RunFull" {
			o.body, o.status, o.err = cc.RunFull(context.Background(), plan)
		} else {
			o.body, o.status, o.err = NewCoordinator(Config{}).Execute(context.Background(), "toy", "kf", nil, cc, plan)
		}
		if o.err != nil || string(o.body) != string(want) {
			t.Errorf("%s resumed from the Final snapshot: err=%v\n got %s\nwant %s", lane, o.err, o.body, want)
		}
	}
	if n := cc.executed(); n != 0 {
		t.Fatalf("the fleet lane ran %d shards of a finished run", n)
	}
}
