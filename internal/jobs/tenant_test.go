// Tests of per-tenant fair scheduling, quotas, cancellation, event logs and
// the List API.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"qisim/internal/obs"
	"qisim/internal/simrun"
)

// TenantLoad returns the tenant's current in-flight job count (only
// tracked when Config.TenantQuota > 0).
func (m *Manager) TenantLoad(tenant string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[tenant]
}

// blockingRunner parks until its context dies, then returns a truncated
// partial — the uniform cancellation shape.
func blockingRunner() Runner {
	return func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		<-ctx.Done()
		return []byte(`{"partial":true}`),
			simrun.Status{Requested: 1, Truncated: true, StopReason: simrun.StopCanceled}, nil
	}
}

func doneStatus() simrun.Status {
	return simrun.Status{Requested: 1, Completed: 1, StopReason: simrun.StopCompleted}
}

// TestFairRoundRobinBetweenTenants: with one worker and a bulk backlog from
// tenant A, tenant B's single job must run second, not after A's whole
// queue — one job per tenant per ring pass.
func TestFairRoundRobinBetweenTenants(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 32})
	m.Start()
	defer drainManager(t, m)

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(name string, block bool) Runner {
		return func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
			if block {
				<-gate
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return []byte(`{}`), doneStatus(), nil
		}
	}
	// The gate job occupies the single worker while the backlog builds.
	gateSnap, _, err := m.Submit(KindSurfaceMC, testKey(t, 100), nil, record("gate", true), "a")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		s, _, err := m.Submit(KindSurfaceMC, testKey(t, int64(101+i)), nil, record("a", false), "a")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	bSnap, _, err := m.Submit(KindSurfaceMC, testKey(t, 200), nil, record("b", false), "b")
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, bSnap.ID, gateSnap.ID)
	close(gate)
	for _, id := range ids {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 7 {
		t.Fatalf("executed %d jobs, want 7 (%v)", len(order), order)
	}
	// order[0] is the gate; tenant b's job must be one of the next two
	// despite five queued tenant-a jobs ahead of it in submission order.
	if order[1] != "b" && order[2] != "b" {
		t.Errorf("tenant b starved: execution order %v", order)
	}
}

func TestTenantQuota(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueDepth: 32, TenantQuota: 2})
	m.Start()
	defer drainManager(t, m)

	s1, _, err := m.Submit(KindSurfaceMC, testKey(t, 1), nil, blockingRunner(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(KindSurfaceMC, testKey(t, 2), nil, blockingRunner(), "x"); err != nil {
		t.Fatal(err)
	}
	// Third in-flight job for x: over quota.
	_, _, err = m.Submit(KindSurfaceMC, testKey(t, 3), nil, blockingRunner(), "x")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third submission: err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected.
	if _, _, err := m.Submit(KindSurfaceMC, testKey(t, 4), nil, blockingRunner(), "y"); err != nil {
		t.Fatalf("tenant y rejected: %v", err)
	}
	if got := m.TenantLoad("x"); got != 2 {
		t.Errorf("tenant x load = %d, want 2", got)
	}
	// Releasing one slot re-opens the quota.
	m.Cancel(s1.ID)
	if _, err := m.Wait(context.Background(), s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(KindSurfaceMC, testKey(t, 6), nil, blockingRunner(), "x"); err != nil {
		t.Fatalf("post-release submission rejected: %v", err)
	}
}

func TestCancelUnknownAndFinished(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	m.Start()
	defer drainManager(t, m)
	if m.Cancel("j-999999") {
		t.Error("Cancel(unknown) returned true")
	}
	snap, _, err := m.Submit(KindSurfaceMC, testKey(t, 40), nil,
		func(context.Context, func(int, int)) ([]byte, simrun.Status, error) {
			return []byte(`{}`), doneStatus(), nil
		}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(snap.ID) {
		t.Error("Cancel(finished) returned false")
	}
	if final, _ := m.Get(snap.ID); final.State != StateDone || (final.Status != nil && final.Status.Truncated) {
		t.Errorf("cancelling a finished job mutated it: %+v", final)
	}
}

// TestEventLogAndSubscribe: state events land in order, Publish streams
// custom events live, and the channel closes at finalization.
func TestEventLogAndSubscribe(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	m.Start()
	defer drainManager(t, m)

	started := make(chan string, 1)
	release := make(chan struct{})
	snap, _, err := m.Submit(KindDSESweep, testKey(t, 50), nil,
		func(ctx context.Context, _ func(int, int)) ([]byte, simrun.Status, error) {
			started <- obs.JobID(ctx)
			<-release
			if err := m.Publish(obs.JobID(ctx), "frontier", map[string]int{"wave": 1}); err != nil {
				return nil, simrun.Status{}, err
			}
			return []byte(`{}`), doneStatus(), nil
		}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	past, ch, cancel, ok := m.Subscribe(snap.ID)
	if !ok {
		t.Fatal("Subscribe: job not found")
	}
	defer cancel()
	if n := m.Subscribers(snap.ID); n != 1 {
		t.Fatalf("Subscribers = %d, want 1", n)
	}
	// Replay holds at least queued + running.
	if len(past) < 2 || past[0].Type != EventState || past[1].Type != EventState {
		t.Fatalf("replay = %+v", past)
	}
	close(release)
	var live []Event
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				goto closed
			}
			live = append(live, ev)
		case <-deadline:
			t.Fatal("subscription never closed")
		}
	}
closed:
	if n := m.Subscribers(snap.ID); n != 0 {
		t.Errorf("Subscribers after the job finished = %d, want 0", n)
	}
	if len(live) != 2 {
		t.Fatalf("live events = %+v, want frontier + terminal state", live)
	}
	if live[0].Type != "frontier" {
		t.Errorf("first live event %+v, want frontier", live[0])
	}
	var sd StateEventData
	if err := json.Unmarshal(live[1].Data, &sd); err != nil || sd.State != StateDone {
		t.Errorf("terminal event %+v (%v)", live[1], err)
	}
	// Seq is contiguous from 1 across replay + live.
	all := append(past, live...)
	for i, ev := range all {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	// Subscribing after the end: full replay, born-closed channel.
	past2, ch2, cancel2, ok := m.Subscribe(snap.ID)
	if !ok {
		t.Fatal("late Subscribe failed")
	}
	defer cancel2()
	if len(past2) != len(all) {
		t.Errorf("late replay %d events, want %d", len(past2), len(all))
	}
	if _, open := <-ch2; open {
		t.Error("late subscription channel not born closed")
	}
}

func TestListFilters(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueDepth: 16})
	m.Start()
	defer drainManager(t, m)

	quick := func(context.Context, func(int, int)) ([]byte, simrun.Status, error) {
		return []byte(`{}`), doneStatus(), nil
	}
	var last Snapshot
	for i := int64(0); i < 3; i++ {
		s, _, err := m.Submit(KindSurfaceMC, testKey(t, 60+i), nil, quick, "t1")
		if err != nil {
			t.Fatal(err)
		}
		last = s
		if _, err := m.Wait(context.Background(), s.ID); err != nil {
			t.Fatal(err)
		}
	}
	blocked, _, err := m.Submit(KindPauliMC, testKey(t, 70), nil, blockingRunner(), "t2")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.List(Filter{}, 0); len(got) != 4 {
		t.Errorf("unfiltered list = %d entries, want 4", len(got))
	}
	got := m.List(Filter{Kind: KindSurfaceMC}, 0)
	if len(got) != 3 {
		t.Errorf("kind filter = %d entries, want 3", len(got))
	}
	// Newest first.
	if len(got) > 0 && got[0].ID != last.ID {
		t.Errorf("list head %s, want newest %s", got[0].ID, last.ID)
	}
	if got := m.List(Filter{Tenant: "t2"}, 0); len(got) != 1 || got[0].ID != blocked.ID {
		t.Errorf("tenant filter = %+v", got)
	}
	if got := m.List(Filter{State: StateDone}, 2); len(got) != 2 {
		t.Errorf("limit 2 = %d entries", len(got))
	}
	m.Cancel(blocked.ID)
	if _, err := m.Wait(context.Background(), blocked.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecordsTenant: the WAL round-trips a submission's tenant,
// through a compaction too, so recovery resubmits it under the same tenant.
func TestJournalRecordsTenant(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir + "/journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey(t, 80), testKey(t, 81)
	if err := j.AppendSubmit(KindDSESweep, k1, json.RawMessage(`{"g":1}`), "acme"); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(KindDSEPoint, k2, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil { // fields must survive a rewrite too
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(dir + "/journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pend := j2.Pending()
	if len(pend) != 2 {
		t.Fatalf("pending = %d, want 2", len(pend))
	}
	if pend[0].Tenant != "acme" {
		t.Errorf("tenant entry %+v", pend[0])
	}
	if pend[1].Tenant != "" {
		t.Errorf("anonymous entry %+v", pend[1])
	}
}
