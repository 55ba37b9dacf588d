package dist

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingCoord counts the claims a worker sends through it.
type countingCoord struct {
	CoordinatorAPI
	claims atomic.Int64
}

func (c *countingCoord) Claim(ctx context.Context, workerID, idemKey string, wait time.Duration) (*LeaseGrant, error) {
	c.claims.Add(1)
	return c.CoordinatorAPI.Claim(ctx, workerID, idemKey, wait)
}

// TestIdleWorkerClaimRate: an idle worker sends about one claim per
// PollInterval, whether the coordinator holds its empty claims or answers
// them at once (a quarantined worker is never held). A worker that claimed
// again at once after an early answer would send thousands.
func TestIdleWorkerClaimRate(t *testing.T) {
	const poll = 20 * time.Millisecond
	for _, tc := range []struct {
		name       string
		quarantine bool
		slack      float64 // claims allowed per poll interval
	}{
		{"held", false, 1},
		// Early answers wait out a poll drawn from [poll/2, 3·poll/2].
		{"quarantined", true, 1.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{LeaseTTL: time.Second})
			if tc.quarantine {
				c.mu.Lock()
				c.quarantineLocked(c.touchWorkerLocked("w1"), c.cfg.Clock())
				c.mu.Unlock()
			}
			coord := &countingCoord{CoordinatorAPI: c}
			w, err := NewWorker(WorkerConfig{ID: "w1", Coordinator: coord, PollInterval: poll, Seed: 1,
				Cores: func(string, json.RawMessage) (Core, error) { return toyCore(1), nil }})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			start := time.Now()
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.Run(ctx) //nolint:errcheck // ends by cancellation
			}()
			time.Sleep(20 * poll)
			cancel()
			<-done
			elapsed := time.Since(start)
			n := coord.claims.Load()
			if limit := int64(tc.slack*float64(elapsed)/float64(poll)) + 2; n > limit || n < 5 {
				t.Fatalf("%d claims in %v idle, want 5 to %d (about one per %v)", n, elapsed, limit, poll)
			}
		})
	}
}

// TestHeldClaimReturnsPromptly: a held empty claim answers nil soon after
// its request is canceled, its hold elapses or the coordinator drains —
// not at the end of a longer hold.
func TestHeldClaimReturnsPromptly(t *testing.T) {
	const hold = 2 * time.Second // LeaseTTL/4 caps it at 2.5s
	for _, tc := range []struct {
		name string
		wait time.Duration
		// end, when set, ends the hold early: it is handed the claim's
		// cancel and the coordinator's Start cancel.
		end func(cancelClaim, cancelStart context.CancelFunc)
		min time.Duration
	}{
		{"canceled", hold, func(cancelClaim, _ context.CancelFunc) { cancelClaim() }, 0},
		{"elapsed", 50 * time.Millisecond, nil, 50 * time.Millisecond},
		{"draining", hold, func(_, cancelStart context.CancelFunc) { cancelStart() }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{LeaseTTL: 10 * time.Second})
			startCtx, cancelStart := context.WithCancel(context.Background())
			defer cancelStart()
			c.Start(startCtx)
			ctx, cancelClaim := context.WithCancel(context.Background())
			defer cancelClaim()
			type answer struct {
				g   *LeaseGrant
				err error
				at  time.Duration
			}
			ch := make(chan answer, 1)
			t0 := time.Now()
			go func() {
				g, err := c.Claim(ctx, "w1", "k1", tc.wait)
				ch <- answer{g, err, time.Since(t0)}
			}()
			if tc.end != nil {
				time.Sleep(20 * time.Millisecond)
				tc.end(cancelClaim, cancelStart)
			}
			a := <-ch
			if a.err != nil || a.g != nil {
				t.Fatalf("held claim answered %+v, %v; want no work", a.g, a.err)
			}
			if a.at < tc.min || a.at > tc.min+500*time.Millisecond {
				t.Fatalf("held claim answered after %v, want %v to %v", a.at, tc.min, tc.min+500*time.Millisecond)
			}
		})
	}
}

// TestHeldDuplicateClaimLeasesOnce: two deliveries of one idempotency key
// both held when a job is admitted get the same grant, and the coordinator
// leases exactly one unit.
func TestHeldDuplicateClaimLeasesOnce(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: 8 * time.Second, UnitShards: 4})
	admit(c, "w1")
	var wg sync.WaitGroup
	grants := make([]*LeaseGrant, 2)
	for i := range grants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := c.Claim(context.Background(), "w1", "w1.c1", 2*time.Second)
			if err != nil {
				t.Error(err)
			}
			grants[i] = g
		}()
	}
	time.Sleep(30 * time.Millisecond) // both deliveries are held by now
	ctx, cancel := context.WithCancel(context.Background())
	ch := startExecute(c, ctx, "k-dup", toyCore(1), toyPlan)
	wg.Wait()
	cancel()
	if o := waitOutcome(t, ch); o.err != nil {
		t.Fatal(o.err)
	}
	if grants[0] == nil || grants[1] == nil || grants[0].Start != grants[1].Start {
		t.Fatalf("deliveries answered %+v and %+v, want one grant twice", grants[0], grants[1])
	}
	if st := c.Stats(); st.Grants != 1 || st.IdemReplays != 1 {
		t.Fatalf("stats %+v, want 1 grant and 1 replay", st)
	}
}
