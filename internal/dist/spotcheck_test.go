package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"qisim/internal/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qisim/internal/backoff"
	"qisim/internal/checkpoint"
)

// frameForTest wraps a raw payload in a valid QISNAP01 container — the CRC
// is correct, so only the content digest stands between a rewritten
// payload and the fold.
func frameForTest(payload []byte) []byte { return checkpoint.EncodeContainer(payload) }

func TestUnitResultDigestRejectsTampering(t *testing.T) {
	u := UnitResult{Kind: "toy", Key: "k-digest", Start: 0, End: 2,
		States: []json.RawMessage{[]byte("11"), []byte("22")}, Events: []int{1, 1}}
	b, err := EncodeUnitResult(u)
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the container with a mutated state but a fresh, valid CRC:
	// the CRC passes, the digest must not. Decode, alter, re-encode keeping
	// the ORIGINAL digest.
	good, err := DecodeUnitResult(b)
	if err != nil {
		t.Fatal(err)
	}
	forged := good
	forged.States = []json.RawMessage{[]byte("99"), []byte("22")}
	// Marshal directly (bypassing EncodeUnitResult's digest restamp) to
	// simulate an attacker or middlebox rewriting payload JSON in flight.
	payload, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	reframed := frameForTest(payload)
	if _, err := DecodeUnitResult(reframed); err == nil {
		t.Fatal("tampered states with stale digest must not decode")
	}
	// A missing digest (legacy v1-style payload) is also rejected.
	forged.States = good.States
	forged.Digest = ""
	payload, _ = json.Marshal(forged)
	if _, err := DecodeUnitResult(frameForTest(payload)); err == nil {
		t.Fatal("digest-less payload must not decode")
	}
}

func TestSpotCheckPassRaisesTrust(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4,
		SpotCheck: 1, SpotCheckProbation: 1})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)
	c.Register(context.Background(), WorkerInfo{ID: "honest"}) //nolint:errcheck
	ch := startExecute(c, context.Background(), "k-spot-pass", core, toyPlan)
	g := waitGrant(t, c, "honest")
	for g != nil {
		report(t, c, core, "honest", g)
		var err error
		if g, err = c.Claim(context.Background(), "honest", ""); err != nil {
			t.Fatal(err)
		}
	}
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("spot-checked bytes differ from standalone:\n%s\n%s", o.body, want)
	}
	st := c.Stats()
	if st.SpotChecksPassed == 0 || st.SpotChecksFailed != 0 || st.Quarantines != 0 {
		t.Fatalf("want only passed spot-checks, got %+v", st)
	}
}

func TestSpotCheckMismatchQuarantinesAndCompletes(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4,
		SpotCheck: 1, SpotCheckProbation: 1, QuarantineFor: 10 * time.Minute})
	core := toyCore(1)
	want := runFullBytes(t, core, toyPlan)
	c.Register(context.Background(), WorkerInfo{ID: "liar"}) //nolint:errcheck
	ch := startExecute(c, context.Background(), "k-spot-fail", core, toyPlan)

	// The liar claims one unit and reports forged states: valid JSON ints
	// (they decode), wrong values (they cannot match the re-execution).
	g := waitGrant(t, c, "liar")
	n := g.End - g.Start
	states := make([]json.RawMessage, n)
	events := make([]int, n)
	for i := range states {
		states[i] = json.RawMessage(fmt.Sprintf("%d", 7_777_000+i))
		events[i] = 1
	}
	body, err := EncodeUnitResult(UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start,
		End: g.End, States: states, Events: events, Worker: "liar"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), "liar", body); err != nil {
		t.Fatal(err)
	}

	// Quarantined: no grants, and a further report is told to abandon.
	if g2, err := c.Claim(context.Background(), "liar", ""); err != nil || g2 != nil {
		t.Fatalf("quarantined worker claimed a grant: %v %v", g2, err)
	}
	if err := c.Report(context.Background(), "liar", body); !errors.Is(err, ErrGone) {
		t.Fatalf("quarantined report: want ErrGone, got %v", err)
	}

	// With the only worker shunned, the local lane finishes the job and
	// the forged unit's truth comes from the coordinator's own re-run.
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("post-quarantine bytes differ from standalone:\n%s\n%s", o.body, want)
	}
	st := c.Stats()
	if st.SpotChecksFailed != 1 || st.Quarantines != 1 {
		t.Fatalf("quarantine not observed: %+v", st)
	}

	// Timed re-admission: after QuarantineFor the worker may claim again.
	clk.Advance(11 * time.Minute)
	if _, err := c.Claim(context.Background(), "liar", ""); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.QuarantineReadmits != 1 {
		t.Fatalf("timed re-admission not observed: %+v", st)
	}
}

// forgedReport builds a unit-result container for g whose states are valid
// JSON ints but cannot match any honest re-execution.
func forgedReport(t *testing.T, g *LeaseGrant, worker string, salt int) []byte {
	t.Helper()
	n := g.End - g.Start
	states := make([]json.RawMessage, n)
	events := make([]int, n)
	for i := range states {
		states[i] = json.RawMessage(fmt.Sprintf("%d", salt+i))
		events[i] = 1
	}
	body, err := EncodeUnitResult(UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start,
		End: g.End, States: states, Events: events, Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// gatedCore wraps a Core so a test can hold one RunWindow open — standing
// in for a slow spot-check re-execution — while further reports arrive.
type gatedCore struct {
	Core
	mu      sync.Mutex
	block   chan struct{} // non-nil: the next RunWindow waits on it (one-shot)
	entered chan struct{} // closed when that RunWindow begins
}

func (g *gatedCore) RunWindow(ctx context.Context, p Plan, start, end int) ([]json.RawMessage, []int, error) {
	g.mu.Lock()
	block, entered := g.block, g.entered
	g.block, g.entered = nil, nil
	g.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if block != nil {
		<-block
	}
	return g.Core.RunWindow(ctx, p, start, end)
}

// TestDuplicateReportDuringVerifyStillAudited closes the double-send
// evasion: while a unit's spot-check is in flight, a duplicated delivery of
// the same forged report must not complete the unit unaudited (which would
// let the in-flight audit bail before comparing). The chaos duplicate fault
// triggers this organically; a malicious worker can trigger it on purpose.
func TestDuplicateReportDuringVerifyStillAudited(t *testing.T) {
	clk := newFakeClock()
	core := &gatedCore{Core: toyCore(1)}
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4,
		SpotCheck: 1, SpotCheckProbation: 1, QuarantineFor: 10 * time.Minute})
	want := runFullBytes(t, toyCore(1), toyPlan)
	c.Register(context.Background(), WorkerInfo{ID: "liar"}) //nolint:errcheck
	ch := startExecute(c, context.Background(), "k-dup-verify", core, toyPlan)
	g := waitGrant(t, c, "liar")
	body := forgedReport(t, g, "liar", 4_444_000)

	release := make(chan struct{})
	entered := make(chan struct{})
	core.mu.Lock()
	core.block, core.entered = release, entered
	core.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- c.Report(context.Background(), "liar", body) }()
	<-entered // the audit re-execution is in flight, coordinator lock released

	// The duplicated delivery of the same forged report: it must be parked
	// as a duplicate, not accepted into the fold.
	if err := c.Report(context.Background(), "liar", body); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SpotChecksFailed != 1 || st.Quarantines != 1 {
		t.Fatalf("duplicate delivery evaded the audit: %+v", st)
	}
	if st.DupReports == 0 {
		t.Fatalf("duplicate delivery not parked: %+v", st)
	}
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("bytes differ from standalone after double-sent forgery:\n%s\n%s", o.body, want)
	}
}

// TestSpotCheckSurvivesReporterDisconnect closes the hang-up evasion: the
// audit re-execution must not run under the reporter's request context, or
// a worker that disconnects right after uploading (or whose client deadline
// fires during a slow re-run) gets its forgery accepted unaudited.
func TestSpotCheckSurvivesReporterDisconnect(t *testing.T) {
	clk := newFakeClock()
	core := toyCore(1)
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4,
		SpotCheck: 1, SpotCheckProbation: 1, QuarantineFor: 10 * time.Minute})
	want := runFullBytes(t, core, toyPlan)
	c.Register(context.Background(), WorkerInfo{ID: "liar"}) //nolint:errcheck
	ch := startExecute(c, context.Background(), "k-dead-ctx", core, toyPlan)
	g := waitGrant(t, c, "liar")
	body := forgedReport(t, g, "liar", 5_555_000)

	rctx, cancel := context.WithCancel(context.Background())
	cancel() // the reporter hung up the moment the upload landed
	if err := c.Report(rctx, "liar", body); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SpotChecksFailed != 1 || st.Quarantines != 1 {
		t.Fatalf("cancelled report context evaded the audit: %+v", st)
	}
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if string(o.body) != string(want) {
		t.Fatalf("bytes differ from standalone after disconnect forgery:\n%s\n%s", o.body, want)
	}
}

func TestTouchDoesNotClearQuarantine(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute,
		QuarantineFor: time.Hour})
	c.Register(context.Background(), WorkerInfo{ID: "w"}) //nolint:errcheck
	c.mu.Lock()
	c.quarantineLocked(c.workers["w"], clk.Now())
	c.mu.Unlock()
	// Registration, claims, renew attempts — none of them lift quarantine.
	c.Register(context.Background(), WorkerInfo{ID: "w"}) //nolint:errcheck
	if g, _ := c.Claim(context.Background(), "w", ""); g != nil {
		t.Fatal("quarantined worker got a grant after re-register")
	}
	c.mu.Lock()
	still := c.workers["w"].quarantined
	c.mu.Unlock()
	if !still {
		t.Fatal("interaction cleared quarantine; only time may")
	}
}

func TestClaimIdempotencyKeyReplaysGrant(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Clock: clk.Now, LeaseTTL: time.Minute, UnitShards: 4})
	core := toyCore(1)
	c.Register(context.Background(), WorkerInfo{ID: "w1"}) //nolint:errcheck
	ch := startExecute(c, context.Background(), "k-idem", core, toyPlan)

	g1 := waitGrantIdem(t, c, "w1", "claim-1")
	grantsAfterFirst := c.Stats().Grants
	// The duplicated delivery: same idempotency key → the SAME grant, no
	// second lease, no extra grant counted.
	g1b, err := c.Claim(context.Background(), "w1", "claim-1")
	if err != nil {
		t.Fatal(err)
	}
	if g1b == nil || g1b.Start != g1.Start || g1b.End != g1.End {
		t.Fatalf("replay returned %+v, want the original grant [%d,%d)", g1b, g1.Start, g1.End)
	}
	st := c.Stats()
	if st.Grants != grantsAfterFirst || st.IdemReplays != 1 {
		t.Fatalf("replay leaked a grant: %+v (had %d grants)", st, grantsAfterFirst)
	}
	// A fresh key gets fresh work.
	g2, err := c.Claim(context.Background(), "w1", "claim-2")
	if err != nil {
		t.Fatal(err)
	}
	if g2 == nil || g2.Start == g1.Start {
		t.Fatalf("fresh key got %+v, want the next unit", g2)
	}
	// Finish the job cleanly.
	report(t, c, core, "w1", g1)
	report(t, c, core, "w1", g2)
	for {
		g, err := c.Claim(context.Background(), "w1", "")
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		report(t, c, core, "w1", g)
	}
	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}
}

// waitGrantIdem polls Claim with a fixed idempotency key until granted.
func waitGrantIdem(t *testing.T, c *Coordinator, worker, idemKey string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g, err := c.Claim(context.Background(), worker, idemKey)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
		// The recorded no-work outcome would replay forever: advance the
		// key per poll but keep the caller's key for the granted claim by
		// retrying the same key after a beat.
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		if w := c.workers[worker]; w != nil && w.lastIdemKey == idemKey {
			w.lastIdemKey, w.lastGrant = "", nil
		}
		c.mu.Unlock()
	}
	t.Fatal("no grant became available")
	return nil
}

// ---- HTTP client hardening ----

func TestClientHonorsRetryAfterOn429And503(t *testing.T) {
	ctx := context.Background()
	rpcs := []struct {
		name string
		call func(*Client) error
		// want is what every attempt must carry: path, Content-Type,
		// X-QIsim-Worker and body.
		want string
	}{
		{"register", func(cl *Client) error { return cl.Register(ctx, WorkerInfo{ID: "w"}) },
			`/v1/dist/register application/json  "{\"id\":\"w\"}"`},
		{"report", func(cl *Client) error { return cl.Report(ctx, "w7", []byte("QISNAP01")) },
			`/v1/dist/report application/octet-stream w7 "QISNAP01"`},
	}
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		for _, rpc := range rpcs {
			t.Run(fmt.Sprintf("%s-%d", rpc.name, status), func(t *testing.T) {
				t.Parallel()
				var (
					mu       sync.Mutex
					received []string
				)
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					mu.Lock()
					received = append(received, fmt.Sprintf("%s %s %s %q", r.URL.Path,
						r.Header.Get("Content-Type"), r.Header.Get("X-QIsim-Worker"), body))
					first := len(received) == 1
					mu.Unlock()
					if first {
						w.Header().Set("Retry-After", "1")
						w.WriteHeader(status)
						return
					}
					w.WriteHeader(http.StatusNoContent)
				}))
				defer srv.Close()
				cl := &Client{Base: srv.URL, MaxAttempts: 3,
					Backoff: backoff.Policy{Base: 50 * time.Millisecond, Cap: 50 * time.Millisecond, Factor: 2},
					Rand:    func() float64 { return 1.0 },
				}
				start := time.Now()
				err := rpc.call(cl)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(received) != 2 {
					t.Fatalf("%d calls, want 2", len(received))
				}
				for i, got := range received {
					if got != rpc.want {
						t.Fatalf("attempt %d sent %s, want %s", i+1, got, rpc.want)
					}
				}
				// Sleep must be ≥ hint (1s) + full-jitter draw (rnd=1 →
				// 50ms): the hint is honored AND decorrelated, on both
				// status codes.
				if elapsed < 1050*time.Millisecond {
					t.Fatalf("retried after %v, want ≥ 1.05s (hint + jitter)", elapsed)
				}
			})
		}
	}
}

func TestClientPerRPCTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stall) // LIFO: release the handler before Close waits on it
	cl := &Client{Base: srv.URL, MaxAttempts: 1, RPCTimeout: 50 * time.Millisecond}
	start := time.Now()
	err := cl.Register(context.Background(), WorkerInfo{ID: "w"})
	if err == nil {
		t.Fatal("want timeout error from a stalled coordinator")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("per-RPC deadline did not fire: waited %v", el)
	}
}

func TestClientRejectsTamperedGrant(t *testing.T) {
	grant := LeaseGrant{Kind: "toy", Key: "k-grant", Plan: Plan{Shots: 64, Seed: 3, ShardSize: 16},
		Start: 0, End: 2, TTLMS: 1000}
	grant.Digest = grantDigest(grant)
	tampered := grant
	tampered.Start, tampered.End = 2, 4 // rewritten in flight; digest now stale
	undigested := grant
	undigested.Digest = ""
	for name, g := range map[string]LeaseGrant{"stale-digest": tampered, "no-digest": undigested} {
		g := g
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(g) //nolint:errcheck
		}))
		cl := &Client{Base: srv.URL, MaxAttempts: 1}
		_, err := cl.Claim(context.Background(), "w", "c1")
		srv.Close()
		if err == nil {
			t.Fatalf("%s: corrupted grant accepted", name)
		}
	}
	// The untampered grant still round-trips.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(grant) //nolint:errcheck
	}))
	defer srv.Close()
	cl := &Client{Base: srv.URL, MaxAttempts: 1}
	got, err := cl.Claim(context.Background(), "w", "c1")
	if err != nil || got == nil || got.Start != grant.Start || got.End != grant.End {
		t.Fatalf("valid grant refused: %+v %v", got, err)
	}
}

// TestClaimDigestMismatchRetriesSameIdemKey: a corrupted claim response
// must be re-claimed under the SAME idempotency key so the coordinator
// replays the already-recorded grant, instead of failing terminally and
// stranding the leased unit until TTL expiry (the caller's next logical
// claim mints a fresh key).
func TestClaimDigestMismatchRetriesSameIdemKey(t *testing.T) {
	grant := LeaseGrant{Kind: "toy", Key: "k-idem-retry", Plan: Plan{Shots: 64, Seed: 3, ShardSize: 16},
		Start: 0, End: 2, TTLMS: 1000}
	grant.Digest = grantDigest(grant)
	tampered := grant
	tampered.Start, tampered.End = 2, 4 // rewritten in flight; digest now stale

	var mu sync.Mutex
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		mu.Lock()
		keys = append(keys, req.IdemKey)
		first := len(keys) == 1
		mu.Unlock()
		if first {
			json.NewEncoder(w).Encode(tampered) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(grant) //nolint:errcheck
	}))
	defer srv.Close()
	cl := &Client{Base: srv.URL, MaxAttempts: 3,
		Backoff: backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond, Factor: 2},
		Rand:    func() float64 { return 0 },
	}
	got, err := cl.Claim(context.Background(), "w", "claim-7")
	if err != nil || got == nil || got.Start != grant.Start || got.End != grant.End {
		t.Fatalf("claim after corrupted first response: %+v %v", got, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] != "claim-7" || keys[1] != "claim-7" {
		t.Fatalf("idem keys %v, want the re-claim to reuse claim-7", keys)
	}
}

// goneReportCoord is a CoordinatorAPI whose Report always answers ErrGone
// (quarantined worker / vanished job).
type goneReportCoord struct {
	reports atomic.Int64
}

func (f *goneReportCoord) Register(context.Context, WorkerInfo) error { return nil }
func (f *goneReportCoord) Claim(context.Context, string, string) (*LeaseGrant, error) {
	return nil, nil
}
func (f *goneReportCoord) Renew(context.Context, string, string, int, int, *metrics.Summary) error {
	return nil
}
func (f *goneReportCoord) Report(context.Context, string, []byte) error {
	f.reports.Add(1)
	return ErrGone
}

// TestWorkerAbandonsUnitOnGoneReport: a 410 on the result upload means the
// coordinator refuses the unit outright — the worker must abandon it after
// one attempt, not re-push the rejected upload through its retry loop.
func TestWorkerAbandonsUnitOnGoneReport(t *testing.T) {
	coord := &goneReportCoord{}
	w, err := NewWorker(WorkerConfig{ID: "w1", Coordinator: coord,
		Cores:   func(string, json.RawMessage) (Core, error) { return toyCore(1), nil },
		Backoff: backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond, Factor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &LeaseGrant{Kind: "toy", Key: "k-gone", Plan: Plan{Shots: 64, Seed: 3, ShardSize: 16},
		Start: 0, End: 2}
	w.runUnit(context.Background(), g)
	if n := coord.reports.Load(); n != 1 {
		t.Fatalf("worker re-pushed a 410-refused upload %d times, want 1 attempt", n)
	}
	if n := w.abandoned.Load(); n != 1 {
		t.Fatalf("abandoned = %d, want 1", n)
	}
}
