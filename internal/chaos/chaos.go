// Package chaos is the fleet's seeded network-fault layer: a deterministic
// schedule of injected latency, connection drops and resets, 5xx bursts,
// truncated and bit-flipped response bodies, duplicated deliveries, and
// reordering, applied to HTTP traffic from either side of the wire —
// Transport wraps an http.RoundTripper (the dist client's view of a flaky
// network), Middleware wraps an http.Handler (the coordinator's view of a
// hostile ingress).
//
// Determinism contract: every fault decision for the nth request through a
// Transport or Middleware is a pure SplitMix64 function of (Spec.Seed, n,
// fault id). Replaying the same scenario spec against the same traffic
// order replays the same fault schedule; the repo's headline invariant is
// that ANY such schedule which does not permanently partition the fleet
// still yields merged results byte-identical to a standalone run (see the
// root chaos network suite). Which wall-clock interleaving the injected
// faults produce is up to the scheduler — the point is that the decisions
// themselves are reproducible and tunable from a JSON file, not that runs
// are cycle-accurate replays.
//
// Scenario specs load from JSON (LoadSpec / ParseSpec); see
// examples/chaos/ for runnable ones and the -chaos-spec flag on qisimd for
// wiring them into a live fleet.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"qisim/internal/simerr"
)

// Fault identities: the salt mixed into each per-request decision, and the
// label under which injections are counted. Keeping them distinct means
// enabling one fault never shifts another fault's schedule.
const (
	FaultLatency   = "latency"
	FaultDrop      = "drop"
	FaultReset     = "reset"
	FaultDuplicate = "duplicate"
	FaultReorder   = "reorder"
	FaultCorrupt   = "corrupt"
	FaultTruncate  = "truncate"
	Fault5xx       = "error5xx"
	FaultAbort     = "abort"
)

// faultSalt maps a fault id to its decision-stream salt.
var faultSalt = map[string]uint64{
	FaultLatency:   1,
	FaultDrop:      2,
	FaultReset:     3,
	FaultDuplicate: 4,
	FaultReorder:   5,
	FaultCorrupt:   6,
	FaultTruncate:  7,
	Fault5xx:       8,
	FaultAbort:     9,
	// salts 100+ are parameter draws (latency amount, flip offset, ...)
}

// LatencySpec injects a uniformly drawn delay into every matched request.
type LatencySpec struct {
	// P is the probability a request is delayed.
	P float64 `json:"p,omitempty"`
	// MinMS/MaxMS bound the injected delay in milliseconds.
	MinMS int `json:"min_ms,omitempty"`
	MaxMS int `json:"max_ms,omitempty"`
}

// ReorderSpec holds a selected request until another request passes it (or
// the hold cap expires) — genuine reordering, not just jitter.
type ReorderSpec struct {
	// P is the probability a request is held for overtaking.
	P float64 `json:"p,omitempty"`
	// HoldMS caps how long a held request waits for an overtaker.
	HoldMS int `json:"hold_ms,omitempty"`
}

// Burst5xxSpec turns the server side into a flapping upstream: entering a
// burst (probability P per request) makes the next Len requests answer
// with Status instead of reaching the handler.
type Burst5xxSpec struct {
	// P is the per-request probability of entering a burst.
	P float64 `json:"p,omitempty"`
	// Len is the burst length in requests (default 3).
	Len int `json:"len,omitempty"`
	// Status is the injected status code (default 503).
	Status int `json:"status,omitempty"`
	// RetryAfterS, when positive, stamps the injected responses with a
	// Retry-After header of this many seconds.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// Spec is one chaos scenario: a seed plus per-fault probabilities. Client
// faults (drop, reset, duplicate, reorder, corrupt, truncate) apply in
// Transport; server faults (error_5xx, abort) in Middleware; latency
// applies on whichever side carries the spec.
type Spec struct {
	// Seed derives the whole fault schedule (0 = 1).
	Seed int64 `json:"seed,omitempty"`

	// Latency delays request handling (both sides).
	Latency LatencySpec `json:"latency,omitempty"`

	// Drop makes the request vanish before reaching the peer: the caller
	// sees a transport error, the server sees nothing.
	Drop float64 `json:"drop,omitempty"`
	// Reset delivers the request but loses the response: the server did
	// the work, the caller sees a connection reset.
	Reset float64 `json:"reset,omitempty"`
	// Duplicate delivers the request twice (one response is returned, the
	// other discarded) — the packet-duplication case idempotency keys
	// exist for.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder holds a request so a later one overtakes it.
	Reorder ReorderSpec `json:"reorder,omitempty"`
	// Corrupt flips one bit of the response body.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Truncate cuts the response body short.
	Truncate float64 `json:"truncate,omitempty"`

	// Error5xx injects server-side 5xx bursts before the handler runs.
	Error5xx Burst5xxSpec `json:"error_5xx,omitempty"`
	// Abort kills the server's response mid-flight: the handler never
	// runs, the client sees an EOF/transport error.
	Abort float64 `json:"abort,omitempty"`
}

// normalized fills defaults.
func (s Spec) normalized() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Error5xx.Len <= 0 {
		s.Error5xx.Len = 3
	}
	if s.Error5xx.Status == 0 {
		s.Error5xx.Status = 503
	}
	if s.Reorder.HoldMS <= 0 {
		s.Reorder.HoldMS = 50
	}
	return s
}

// Validate rejects out-of-range probabilities and inverted bounds.
func (s Spec) Validate() error {
	probs := map[string]float64{
		"latency.p": s.Latency.P, "drop": s.Drop, "reset": s.Reset,
		"duplicate": s.Duplicate, "reorder.p": s.Reorder.P,
		"corrupt": s.Corrupt, "truncate": s.Truncate,
		"error_5xx.p": s.Error5xx.P, "abort": s.Abort,
	}
	for name, p := range probs {
		if p < 0 || p > 1 {
			return simerr.Invalidf("chaos: %s = %v outside [0,1]", name, p)
		}
	}
	if s.Latency.MinMS < 0 || s.Latency.MaxMS < s.Latency.MinMS {
		return simerr.Invalidf("chaos: latency bounds [%d,%d]ms invalid",
			s.Latency.MinMS, s.Latency.MaxMS)
	}
	if s.Error5xx.Status != 0 && (s.Error5xx.Status < 500 || s.Error5xx.Status > 599) {
		return simerr.Invalidf("chaos: error_5xx.status %d is not a 5xx", s.Error5xx.Status)
	}
	return nil
}

// ParseSpec decodes and validates a JSON scenario spec.
func ParseSpec(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, simerr.Invalidf("chaos: bad scenario spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a scenario spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, simerr.Invalidf("chaos: read spec %s: %v", path, err)
	}
	s, err := ParseSpec(b)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ---- seeded decision stream ----

// splitmix64 finalisation constants (Steele, Lea & Flood, OOPSLA 2014) —
// the same mix the engine's ShardSeed uses, salted per fault so schedules
// are independent.
const (
	smGamma = 0x9E3779B97F4A7C15
	smMulA  = 0xBF58476D1CE4E5B9
	smMulB  = 0x94D049BB133111EB
)

// smGamma2 is γ² mod 2⁶⁴ — a var, not a const, so the product wraps like
// every other step here instead of tripping constant-overflow checks.
var smGamma2 = func() uint64 { g := uint64(smGamma); return g * g }()

// mix64 is the SplitMix64 finalisation over seed + (n+1)·γ + salt·γ².
func mix64(seed int64, n, salt uint64) uint64 {
	z := uint64(seed) + (n+1)*smGamma + salt*smGamma2
	z = (z ^ (z >> 30)) * smMulA
	z = (z ^ (z >> 27)) * smMulB
	return z ^ (z >> 31)
}

// Draw returns the deterministic uniform [0,1) decision value of fault
// `salt` for request n under `seed`. Exported for the schedule-replay
// tests; everything else goes through decide/amount.
func Draw(seed int64, n, salt uint64) float64 {
	return float64(mix64(seed, n, salt)>>11) / float64(1<<53)
}

// decide reports whether fault f fires on request n.
func (s Spec) decide(f string, n uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return Draw(s.Seed, n, faultSalt[f]) < p
}

// amount draws fault f's deterministic parameter value for request n in
// [0,1) (delay fraction, flip offset fraction, truncation point, ...).
func (s Spec) amount(f string, n uint64) float64 {
	return Draw(s.Seed, n, faultSalt[f]+100)
}

// latencyFor returns request n's injected delay (0 = none).
func (s Spec) latencyFor(n uint64) time.Duration {
	if !s.decide(FaultLatency, n, s.Latency.P) {
		return 0
	}
	span := s.Latency.MaxMS - s.Latency.MinMS
	ms := float64(s.Latency.MinMS) + s.amount(FaultLatency, n)*float64(span)
	return time.Duration(ms * float64(time.Millisecond))
}

// Stats counts injected faults by id. Snapshot of live counters.
type Stats map[string]int64

// counters is the shared injection tally of a Transport or Middleware.
type counters struct {
	latency, drop, reset, duplicate, reorder atomic.Int64
	corrupt, truncate, err5xx, abort         atomic.Int64
	requests                                 atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		"requests":     c.requests.Load(),
		FaultLatency:   c.latency.Load(),
		FaultDrop:      c.drop.Load(),
		FaultReset:     c.reset.Load(),
		FaultDuplicate: c.duplicate.Load(),
		FaultReorder:   c.reorder.Load(),
		FaultCorrupt:   c.corrupt.Load(),
		FaultTruncate:  c.truncate.Load(),
		Fault5xx:       c.err5xx.Load(),
		FaultAbort:     c.abort.Load(),
	}
}
