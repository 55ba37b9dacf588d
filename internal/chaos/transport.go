package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// errInjected is the transport-error type chaos injects; it satisfies
// net/http's retryability expectations (a plain error from RoundTrip) and
// unwraps to nothing — callers must treat it like any flaky-network error.
type errInjected struct{ fault string }

func (e errInjected) Error() string { return "chaos: injected " + e.fault }

// Transport is the client-side half of the chaos layer: an
// http.RoundTripper that applies the spec's fault schedule to every
// request. Wrap the dist client's HTTP transport with it to simulate a
// flaky network between a fleet worker and its coordinator.
type Transport struct {
	spec Spec
	base http.RoundTripper

	n    atomic.Uint64
	cnt  counters
	hook func(fault string)

	// reorder gate: a held request parks on pass and is released when any
	// later request overtakes it (or its hold cap expires).
	mu   sync.Mutex
	held chan struct{} // non-nil while one request is parked
}

// NewTransport wraps base (nil = http.DefaultTransport) with spec's fault
// schedule.
func NewTransport(spec Spec, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{spec: spec.normalized(), base: base}
}

// OnInject registers an observability hook called with the fault id of
// every injection (metrics bridges). Call before first use; not
// synchronized with in-flight requests.
func (t *Transport) OnInject(fn func(fault string)) { t.hook = fn }

// Stats returns the injection tally so far.
func (t *Transport) Stats() Stats { return t.cnt.snapshot() }

func (t *Transport) inject(fault string, c *atomic.Int64) {
	c.Add(1)
	if t.hook != nil {
		t.hook(fault)
	}
}

// RoundTrip applies the fault schedule for this request's sequence number,
// in wire order: reorder hold → latency → drop → (duplicate) delivery →
// reset → response corruption/truncation.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.n.Add(1) - 1
	t.cnt.requests.Add(1)
	s := t.spec
	ctx := req.Context()

	// Overtake any parked request: this one passing is what the held one
	// waits for.
	t.release()

	if s.decide(FaultReorder, n, s.Reorder.P) {
		t.inject(FaultReorder, &t.cnt.reorder)
		if err := t.hold(ctx, time.Duration(s.Reorder.HoldMS)*time.Millisecond); err != nil {
			return nil, err
		}
	}
	if d := s.latencyFor(n); d > 0 {
		t.inject(FaultLatency, &t.cnt.latency)
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
	if s.decide(FaultDrop, n, s.Drop) {
		t.inject(FaultDrop, &t.cnt.drop)
		return nil, errInjected{FaultDrop}
	}

	// Buffer the body once so duplication can replay it.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: buffering request body: %w", err)
		}
	}
	send := func() (*http.Response, error) {
		r2 := req.Clone(ctx)
		if body != nil {
			r2.Body = io.NopCloser(bytes.NewReader(body))
			r2.ContentLength = int64(len(body))
		}
		return t.base.RoundTrip(r2)
	}

	if s.decide(FaultDuplicate, n, s.Duplicate) {
		t.inject(FaultDuplicate, &t.cnt.duplicate)
		// The duplicated delivery: the server sees the request twice; the
		// first response is discarded on the floor like a lost packet.
		if resp, err := send(); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}

	resp, err := send()
	if err != nil {
		return nil, err
	}

	if s.decide(FaultReset, n, s.Reset) {
		t.inject(FaultReset, &t.cnt.reset)
		// The server processed the request; the response never made it
		// back. The caller must treat this exactly like a drop — which is
		// why reports need idempotency.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return nil, errInjected{FaultReset}
	}

	corrupt := s.decide(FaultCorrupt, n, s.Corrupt)
	truncate := s.decide(FaultTruncate, n, s.Truncate)
	if corrupt || truncate {
		payload, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if truncate && len(payload) > 0 {
			t.inject(FaultTruncate, &t.cnt.truncate)
			payload = payload[:int(s.amount(FaultTruncate, n)*float64(len(payload)))]
		}
		if corrupt && len(payload) > 0 {
			t.inject(FaultCorrupt, &t.cnt.corrupt)
			off := int(s.amount(FaultCorrupt, n) * float64(len(payload)))
			bit := uint(mix64(s.Seed, n, faultSalt[FaultCorrupt]+200) % 8)
			payload = append([]byte(nil), payload...)
			payload[off] ^= 1 << bit
		}
		resp.Body = io.NopCloser(bytes.NewReader(payload))
		resp.ContentLength = int64(len(payload))
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// hold parks the calling request until another request passes through the
// transport, the hold cap expires, or ctx dies. Only one request parks at
// a time (a second selected request just proceeds — someone must be moving
// for reordering to mean anything).
func (t *Transport) hold(ctx context.Context, holdCap time.Duration) error {
	t.mu.Lock()
	if t.held != nil {
		t.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	t.held = ch
	t.mu.Unlock()

	timer := time.NewTimer(holdCap)
	defer timer.Stop()
	defer func() {
		t.mu.Lock()
		if t.held == ch {
			t.held = nil
		}
		t.mu.Unlock()
	}()
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release lets a parked request continue (idempotent).
func (t *Transport) release() {
	t.mu.Lock()
	if t.held != nil {
		close(t.held)
		t.held = nil
	}
	t.mu.Unlock()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
