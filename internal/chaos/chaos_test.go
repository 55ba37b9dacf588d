package chaos

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDrawDeterministicAndUniformish(t *testing.T) {
	for n := uint64(0); n < 64; n++ {
		a := Draw(42, n, faultSalt[FaultDrop])
		b := Draw(42, n, faultSalt[FaultDrop])
		if a != b {
			t.Fatalf("Draw not deterministic at n=%d: %v vs %v", n, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("Draw out of [0,1) at n=%d: %v", n, a)
		}
	}
	// A different seed must yield a different schedule.
	same := 0
	for n := uint64(0); n < 256; n++ {
		if Draw(1, n, 2) == Draw(2, n, 2) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collide on %d of 256 draws", same)
	}
	// Empirical rate should track p for a moderate sample.
	hits := 0
	const trials = 4096
	for n := uint64(0); n < trials; n++ {
		if Draw(7, n, 3) < 0.25 {
			hits++
		}
	}
	if got := float64(hits) / trials; got < 0.20 || got > 0.30 {
		t.Fatalf("empirical rate %v far from 0.25", got)
	}
}

func TestFaultSaltsIndependent(t *testing.T) {
	// Enabling one fault must not shift another fault's decisions: streams
	// with different salts must not be correlated copies of each other.
	for n := uint64(0); n < 128; n++ {
		if Draw(9, n, faultSalt[FaultDrop]) == Draw(9, n, faultSalt[FaultReset]) {
			t.Fatalf("drop and reset draws identical at n=%d", n)
		}
	}
}

func TestSpecNormalizeAndValidate(t *testing.T) {
	s := Spec{}.normalized()
	if s.Seed != 1 || s.Error5xx.Len != 3 || s.Error5xx.Status != 503 || s.Reorder.HoldMS != 50 {
		t.Fatalf("bad defaults: %+v", s)
	}
	bad := []Spec{
		{Drop: -0.1},
		{Drop: 1.5},
		{Latency: LatencySpec{P: 2}},
		{Latency: LatencySpec{MinMS: 10, MaxMS: 5}},
		{Error5xx: Burst5xxSpec{Status: 404}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, s)
		}
	}
	ok := Spec{Drop: 0.5, Latency: LatencySpec{P: 1, MinMS: 1, MaxMS: 5},
		Error5xx: Burst5xxSpec{P: 0.1, Status: 500}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected valid spec: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{"seed": 11, "drop": 0.2, "latency": {"p": 0.5, "max_ms": 20}}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Seed != 11 || s.Drop != 0.2 || s.Latency.MaxMS != 20 {
		t.Fatalf("bad parse: %+v", s)
	}
	if _, err := ParseSpec([]byte(`{"dorp": 0.2}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"drop": 7}`)); err == nil {
		t.Fatal("invalid probability accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// chaosClient wires a Transport around an httptest server.
func chaosClient(t *testing.T, spec Spec, handler http.Handler) (*http.Client, *Transport, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	tr := NewTransport(spec, nil)
	return &http.Client{Transport: tr}, tr, srv
}

func TestTransportDropAndReset(t *testing.T) {
	var served int64
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		mu.Unlock()
		io.WriteString(w, "ok")
	})
	client, tr, srv := chaosClient(t, Spec{Seed: 5, Drop: 1}, h)
	if _, err := client.Get(srv.URL); !isInjected(errors.Unwrap(unwrapURLErr(err))) && !isInjected(err) {
		t.Fatalf("want injected drop, got %v", err)
	}
	mu.Lock()
	if served != 0 {
		t.Fatalf("dropped request reached server %d times", served)
	}
	mu.Unlock()
	if tr.Stats()[FaultDrop] != 1 {
		t.Fatalf("drop stat = %d", tr.Stats()[FaultDrop])
	}

	client, tr, srv = chaosClient(t, Spec{Seed: 5, Reset: 1}, h)
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("reset: want error")
	}
	mu.Lock()
	if served != 1 {
		t.Fatalf("reset request should reach server once, served=%d", served)
	}
	mu.Unlock()
	if tr.Stats()[FaultReset] != 1 {
		t.Fatalf("reset stat = %d", tr.Stats()[FaultReset])
	}
}

// unwrapURLErr peels the *url.Error http.Client wraps transport errors in.
// isInjected reports whether err, or an error it wraps, is a fault a chaos
// Transport or Middleware injected.
func isInjected(err error) bool {
	var ei errInjected
	return errors.As(err, &ei)
}

func unwrapURLErr(err error) error {
	type wrapped interface{ Unwrap() error }
	if u, ok := err.(wrapped); ok && err != nil {
		return u.Unwrap()
	}
	return err
}

func TestTransportDuplicateDeliversTwice(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		io.WriteString(w, "ack")
	})
	client, tr, srv := chaosClient(t, Spec{Seed: 3, Duplicate: 1}, h)
	resp, err := client.Post(srv.URL, "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != "ack" {
		t.Fatalf("caller response = %q", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 || bodies[0] != "payload" || bodies[1] != "payload" {
		t.Fatalf("server saw %q, want payload twice", bodies)
	}
	if tr.Stats()[FaultDuplicate] != 1 {
		t.Fatalf("duplicate stat = %d", tr.Stats()[FaultDuplicate])
	}
}

func TestTransportCorruptAndTruncate(t *testing.T) {
	const body = "0123456789abcdef"
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	})
	client, tr, srv := chaosClient(t, Spec{Seed: 8, Corrupt: 1}, h)
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) == body {
		t.Fatal("corrupt: body unchanged")
	}
	if len(got) != len(body) {
		t.Fatalf("corrupt changed length: %d vs %d", len(got), len(body))
	}
	diff := 0
	for i := range got {
		if got[i] != body[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bytes, want exactly 1", diff)
	}
	if tr.Stats()[FaultCorrupt] != 1 {
		t.Fatalf("corrupt stat = %d", tr.Stats()[FaultCorrupt])
	}

	client, tr, srv = chaosClient(t, Spec{Seed: 8, Truncate: 1}, h)
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) >= len(body) {
		t.Fatalf("truncate: body not shortened (len %d)", len(got))
	}
	if string(got) != body[:len(got)] {
		t.Fatalf("truncate altered prefix: %q", got)
	}
	if tr.Stats()[FaultTruncate] != 1 {
		t.Fatalf("truncate stat = %d", tr.Stats()[FaultTruncate])
	}
}

func TestTransportCorruptionDeterministic(t *testing.T) {
	const body = "deterministic-corruption-check"
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	})
	read := func() string {
		client, _, srv := chaosClient(t, Spec{Seed: 21, Corrupt: 1}, h)
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if a, b := read(), read(); a != b {
		t.Fatalf("same seed corrupted differently: %q vs %q", a, b)
	}
}

func TestTransportLatency(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	client, tr, srv := chaosClient(t, Spec{Seed: 2,
		Latency: LatencySpec{P: 1, MinMS: 30, MaxMS: 30}}, h)
	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("latency not injected: elapsed %v", el)
	}
	if tr.Stats()[FaultLatency] != 1 {
		t.Fatalf("latency stat = %d", tr.Stats()[FaultLatency])
	}
}

func TestTransportReorderOvertake(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	// Find a seed where only request 0 draws reorder at p=0.5, so /first
	// parks and /second passes straight through as the overtaker.
	var seed int64
	for s := int64(1); ; s++ {
		if Draw(s, 0, faultSalt[FaultReorder]) < 0.5 &&
			Draw(s, 1, faultSalt[FaultReorder]) >= 0.5 {
			seed = s
			break
		}
	}
	// Hold cap far beyond the assertion window: release must come from the
	// overtaking request, not the timer.
	spec := Spec{Seed: seed, Reorder: ReorderSpec{P: 0.5, HoldMS: 30000}}
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := NewTransport(spec, nil)
	client := &http.Client{Transport: tr}

	done := make(chan struct{})
	go func() {
		resp, err := client.Get(srv.URL + "/first")
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	time.Sleep(100 * time.Millisecond) // let /first park on the gate
	select {
	case <-done:
		t.Fatal("held request completed before any overtaker")
	default:
	}
	resp, err := client.Get(srv.URL + "/second")
	if err != nil {
		t.Fatalf("second get: %v", err)
	}
	resp.Body.Close()
	select {
	case <-done: // released by the overtake, well inside the 30s cap
	case <-time.After(5 * time.Second):
		t.Fatal("held request never released by overtaker")
	}
	if tr.Stats()[FaultReorder] != 1 {
		t.Fatalf("reorder stat = %d", tr.Stats()[FaultReorder])
	}
}

func TestMiddleware5xxBurstAndRetryAfter(t *testing.T) {
	var served int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		io.WriteString(w, "real")
	})
	mw := NewMiddleware(Spec{Seed: 4,
		Error5xx: Burst5xxSpec{P: 1, Len: 2, Status: 503, RetryAfterS: 7}}, h)
	srv := httptest.NewServer(mw)
	defer srv.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Fatalf("req %d: status %d, want 503", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("req %d: Retry-After = %q", i, ra)
		}
	}
	if served != 0 {
		t.Fatalf("handler ran %d times during burst", served)
	}
	if got := mw.Stats()[Fault5xx]; got != 2 {
		t.Fatalf("5xx stat = %d", got)
	}
}

func TestMiddlewareAbort(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran despite abort")
	})
	mw := NewMiddleware(Spec{Seed: 4, Abort: 1}, h)
	srv := httptest.NewServer(mw)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("abort: want transport error, got status %d", resp.StatusCode)
	}
	if mw.Stats()[FaultAbort] != 1 {
		t.Fatalf("abort stat = %d", mw.Stats()[FaultAbort])
	}
}

func TestMiddlewareDuplicateDelivery(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		fmt.Fprintf(w, "seen %d", len(bodies))
	})
	mw := NewMiddleware(Spec{Seed: 6, Duplicate: 1}, h)
	srv := httptest.NewServer(mw)
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("dup-me"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 || bodies[0] != "dup-me" || bodies[1] != "dup-me" {
		t.Fatalf("handler saw %q, want dup-me twice", bodies)
	}
	// The caller gets the SECOND delivery's response.
	if string(got) != "seen 2" {
		t.Fatalf("caller response %q", got)
	}
}

func TestScheduleReplayIdentical(t *testing.T) {
	// The full decision schedule over 512 requests is a pure function of the
	// spec: replaying it yields the identical fault sequence.
	spec := Spec{Seed: 99, Drop: 0.2, Reset: 0.1, Duplicate: 0.15,
		Corrupt: 0.05, Truncate: 0.05,
		Latency: LatencySpec{P: 0.3, MinMS: 1, MaxMS: 9}}.normalized()
	type decision struct {
		drop, reset, dup, corrupt, trunc bool
		delay                            time.Duration
	}
	run := func() []decision {
		out := make([]decision, 512)
		for n := uint64(0); n < 512; n++ {
			out[n] = decision{
				drop:    spec.decide(FaultDrop, n, spec.Drop),
				reset:   spec.decide(FaultReset, n, spec.Reset),
				dup:     spec.decide(FaultDuplicate, n, spec.Duplicate),
				corrupt: spec.decide(FaultCorrupt, n, spec.Corrupt),
				trunc:   spec.decide(FaultTruncate, n, spec.Truncate),
				delay:   spec.latencyFor(n),
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at n=%d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And it actually injects something at these rates.
	fired := 0
	for _, d := range a {
		if d.drop || d.reset || d.dup || d.corrupt || d.trunc || d.delay > 0 {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("schedule fired no faults at all")
	}
}

// TestExampleSpecsLoad keeps the shipped example schedules loadable: the
// README tells operators to pass them to -chaos-spec verbatim, so a field
// rename that strands them is a doc bug this test turns into a red build.
func TestExampleSpecsLoad(t *testing.T) {
	matches, err := filepath.Glob("../../examples/chaos/*.json")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no example chaos specs found: %v", err)
	}
	for _, f := range matches {
		spec, err := LoadSpec(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if spec == (Spec{}) {
			t.Errorf("%s: example spec injects nothing", f)
		}
	}
}
