package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"qisim/internal/backoff"
	"qisim/internal/obs"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// Fixed coordinator policy; the lease-paced intervals derive from
// Config.LeaseTTL instead.
const (
	// maxAttempts is the remote grant budget per unit before it degrades
	// to the local lane.
	maxAttempts = 4
	// probeFailLimit evicts a worker after this many consecutive probe
	// failures.
	probeFailLimit = 3
	// spotCheckProbation is the check fraction for workers below
	// spotCheckMinTrust passes (never below Config.SpotCheck): fresh
	// arrivals and quarantine returnees prove themselves before dropping to
	// the base rate.
	spotCheckProbation = 0.5
	spotCheckMinTrust  = 3
	// seed seeds the requeue jitter and the spot-check draw; jitter never
	// touches simulation results.
	seed = 1
)

// Config parameterises a Coordinator. It names no store: a job's one
// durable state is the checkpoint its core's options carry (see Execute).
type Config struct {
	// LeaseTTL is a lease's deadline extension per grant/renewal
	// (default 15s). It paces the rest of the lease machinery: the expiry
	// sweep runs every TTL/4 and the health probes every TTL, a leased unit
	// older than 2×TTL may be hedged, and a quarantine lasts 4×TTL.
	LeaseTTL time.Duration
	// UnitShards is the work-unit granularity in shards (default 4).
	UnitShards int
	// Probe checks one worker's health endpoint, returning its readiness
	// status ("ok", "draining", "saturated", ...) or an error for
	// unreachable. Nil disables probing (workers die by lease expiry only).
	Probe func(ctx context.Context, addr string) (string, error)
	// Clock injects time for tests (default time.Now).
	Clock func() time.Time
	// SpotCheck is the untrusted-worker defense: the seeded fraction of
	// remote unit reports the coordinator re-executes locally and compares
	// byte-for-byte before trusting. 0 disables spot-checking. A worker
	// whose report mismatches is quarantined (leases stripped, no grants,
	// reports ignored) for 4×LeaseTTL and its trust resets.
	SpotCheck float64
	Logger    *slog.Logger
	// Flight, when set, records lease transitions, retries, evictions,
	// quarantines and spot-check verdicts into the shared flight-recorder
	// ring (nil disables; every Record call is nil-safe).
	Flight *obs.FlightRecorder
	// UnitSeconds, when set, observes each accepted unit's wall time from
	// first grant to acceptance, with the reporting worker ("local" for the
	// local lane). Called under the coordinator lock: keep it O(1).
	UnitSeconds func(worker string, seconds float64)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.UnitShards <= 0 {
		c.UnitShards = 4
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	}
	return c
}

// Stats is a snapshot of the coordinator's cumulative counters.
type Stats struct {
	Grants      int // lease grants (primary + hedged)
	Renewals    int
	Expired     int // leases lost to deadline expiry
	UnitRetries int // units requeued after losing all leases
	Steals      int // hedged duplicate grants
	Evictions   int
	Readmits    int
	LocalUnits  int // units run on the coordinator's local lane
	UnitsDone   int
	DupReports  int // idempotent duplicate uploads dropped

	SpotChecksPassed   int // spot-checked reports matching the local re-run
	SpotChecksFailed   int // mismatches → worker quarantined
	SpotCheckErrors    int // re-executions that failed; the report was accepted unaudited
	Quarantines        int // workers quarantined
	QuarantineReadmits int // workers re-admitted after their quarantine elapsed
	IdemReplays        int // duplicate claim deliveries answered from the idempotency record
}

// Unit states.
const (
	unitPending = iota
	unitLeased
	unitDone
)

type unit struct {
	idx        int
	start, end int // global shard range [start,end)
	state      int
	attempts   int                  // primary grants so far
	notBefore  time.Time            // backoff gate for re-dispatch
	leases     map[string]time.Time // worker -> expiry (2 entries max: primary + hedge)
	firstGrant time.Time            // straggler age reference
	localOnly  bool                 // degraded to the local lane
	localInFly bool                 // local lane currently executing it
	verifying  bool                 // spot-check re-execution in flight
	states     []json.RawMessage    // per-shard results once done
	events     []int
}

type distJob struct {
	kind   string
	key    string
	params json.RawMessage
	plan   Plan
	core   Core
	units  []*unit

	deadline    time.Time
	hasDeadline bool
	tracer      *obs.Tracer
	span        *obs.Span

	// The fold of the committed shard prefix and the hooks of the core's
	// options that observe it, driven as simrun.RunSharded drives them.
	fold          fold
	tally         simrun.Tally
	progress      func(completed, requested int) // nil = silent
	checkpoint    func(simrun.CheckpointState)   // nil = no snapshots
	frontierUnit  int                            // next unit awaiting fold
	frontierShard int                            // next global shard awaiting fold
	stopReason    string
	finished      bool
	result        []byte
	status        simrun.Status
	err           error
}

type workerState struct {
	id         string
	addr       string
	draining   bool
	evicted    bool
	probeFails int
	registered bool

	// Untrusted-worker defense state. Quarantine is deliberately separate
	// from eviction: eviction is a health verdict any sign of life
	// reverses, quarantine is an integrity verdict only time reverses.
	trust            int       // passed spot-checks since last reset
	quarantined      bool      // shunned: no grants, reports ignored
	quarantinedUntil time.Time // timed re-admission point

	// Claim idempotency: duplicated deliveries of the same claim replay
	// the recorded grant instead of leaking a second lease. Deliveries of
	// one claim are adjacent on the wire, so one slot per worker suffices.
	lastIdemKey string
	lastGrant   *LeaseGrant

	// The telemetry of the worker's latest report that passed the intake
	// check, and the time of its last sign of life (claim, renewal,
	// report, register).
	telemetry *Telemetry
	lastSeen  time.Time
}

// Coordinator splits jobs into leased work units across a worker fleet and
// folds reported shard results back into byte-exact job results. All
// methods are safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	rnd     *rand.Rand
	jobs    map[string]*distJob
	order   []string // job admission order (claim fairness)
	workers map[string]*workerState
	stats   Stats
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		rnd:     rand.New(rand.NewSource(seed)),
		jobs:    map[string]*distJob{},
		workers: map[string]*workerState{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Stats returns a snapshot of the cumulative counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WorkerInfo is a worker's registration record.
type WorkerInfo struct {
	ID string `json:"id"`
	// Addr is the worker's advertised base URL for health probes
	// ("" = unprobeable: the worker lives until its leases expire).
	Addr string `json:"addr,omitempty"`
}

// Register admits (or re-admits) a worker into the fleet.
func (c *Coordinator) Register(_ context.Context, info WorkerInfo) error {
	if info.ID == "" {
		return simerr.Invalidf("dist: register: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[info.ID]
	if w == nil {
		w = &workerState{id: info.ID}
		c.workers[info.ID] = w
	}
	w.addr = info.Addr
	w.registered = true
	w.lastSeen = c.cfg.Clock()
	c.cfg.Flight.Record("worker.register", obs.String("worker", info.ID))
	if w.evicted {
		c.stats.Readmits++
	}
	w.evicted = false
	w.draining = false
	w.probeFails = 0
	c.cond.Broadcast()
	return nil
}

// liveWorkerLocked reports whether at least one registered worker can
// accept new grants.
func (c *Coordinator) liveWorkerLocked() bool {
	now := c.cfg.Clock()
	for _, w := range c.workers {
		if w.registered && !w.evicted && !w.draining && !c.quarantinedLocked(w, now) {
			return true
		}
	}
	return false
}

// quarantinedLocked reports whether w is still quarantined, lazily
// re-admitting it once its quarantine has elapsed. Re-admitted workers keep
// trust 0, so they re-enter on the probation spot-check rate.
func (c *Coordinator) quarantinedLocked(w *workerState, now time.Time) bool {
	if !w.quarantined {
		return false
	}
	if now.Before(w.quarantinedUntil) {
		return true
	}
	w.quarantined = false
	c.stats.QuarantineReadmits++
	c.cfg.Flight.Record("worker.readmit", obs.String("worker", w.id), obs.String("cause", "quarantine-expired"))
	return false
}

// quarantineLocked shuns a worker whose report failed its spot-check:
// leases stripped and requeued, trust reset, no grants and no accepted
// reports until the timed re-admission.
func (c *Coordinator) quarantineLocked(w *workerState, now time.Time) {
	w.quarantined = true
	w.quarantinedUntil = now.Add(4 * c.cfg.LeaseTTL)
	w.trust = 0
	w.lastIdemKey, w.lastGrant = "", nil
	c.stats.Quarantines++
	c.cfg.Flight.Record("worker.quarantine", obs.String("worker", w.id),
		obs.String("until", w.quarantinedUntil.UTC().Format(time.RFC3339)))
	c.cfg.Logger.Warn("dist: worker quarantined after spot-check mismatch",
		"worker", w.id, "until", w.quarantinedUntil)
	c.evictLeasesLocked(w.id, now)
}

// touchWorkerLocked counts any interaction as proof of life: a claim or
// report from an "evicted" worker re-admits it (the probe was wrong or the
// partition healed).
func (c *Coordinator) touchWorkerLocked(id string) *workerState {
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id, registered: true}
		c.workers[id] = w
	}
	w.registered = true
	w.lastSeen = c.cfg.Clock()
	if w.evicted {
		w.evicted = false
		c.stats.Readmits++
		c.cfg.Flight.Record("worker.readmit", obs.String("worker", id), obs.String("cause", "contact"))
	}
	w.probeFails = 0
	return w
}

// LeaseGrant is one claimed work unit: everything a worker needs to
// rebuild the job's core, execute the shard window, and report.
type LeaseGrant struct {
	Kind   string          `json:"kind"`
	Key    string          `json:"key"`
	Params json.RawMessage `json:"params,omitempty"`
	Plan   Plan            `json:"plan"`
	Start  int             `json:"start"`
	End    int             `json:"end"`
	// TTLMS is the lease deadline budget: the worker must report or renew
	// within it.
	TTLMS int64 `json:"ttl_ms"`
	// DeadlineMS, when positive, is the job deadline remaining at grant
	// time, propagated from the client request so shard execution respects
	// it end to end.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Digest is the SHA-256 over every other field, stamped at grant time.
	// The HTTP client refuses a grant whose digest does not verify: a
	// claim response corrupted in flight into still-valid JSON would
	// otherwise hand the worker a wrong window, seed, or plan — the worker
	// would compute honestly over garbage and be quarantined for it.
	Digest string `json:"digest,omitempty"`
}

// Claim hands the worker its next work unit, or nil when none is
// available. Pending units gate on their backoff window; when nothing is
// pending, an old straggler unit may be hedge-dispatched as a duplicate
// lease (work stealing — first report wins).
//
// idemKey makes the claim safe under duplicated delivery: a repeat of the
// worker's most recent key replays the recorded outcome (grant or no-work)
// instead of leasing a second unit. Workers mint a fresh key per logical
// claim; "" opts out (in-process callers that cannot be duplicated).
func (c *Coordinator) Claim(_ context.Context, workerID, idemKey string) (*LeaseGrant, error) {
	if workerID == "" {
		return nil, simerr.Invalidf("dist: claim: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorkerLocked(workerID)
	now := c.cfg.Clock()
	if idemKey != "" && idemKey == w.lastIdemKey {
		c.stats.IdemReplays++
		return w.lastGrant, nil
	}
	record := func(g *LeaseGrant) *LeaseGrant {
		if idemKey != "" {
			w.lastIdemKey, w.lastGrant = idemKey, g
		}
		return g
	}
	if w.draining || c.quarantinedLocked(w, now) {
		return record(nil), nil
	}

	// Primary grants: first admitted job with a runnable pending unit.
	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil || j.finished || j.err != nil {
			continue
		}
		for _, u := range j.units {
			if u.state != unitPending || u.localOnly || u.localInFly || now.Before(u.notBefore) {
				continue
			}
			return record(c.grantLocked(j, u, w, now, false)), nil
		}
	}
	// Work stealing: hedge the oldest straggler not already held by this
	// worker.
	var (
		hj *distJob
		hu *unit
	)
	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil || j.finished || j.err != nil {
			continue
		}
		for _, u := range j.units {
			if u.state != unitLeased || len(u.leases) >= 2 {
				continue
			}
			if _, mine := u.leases[workerID]; mine {
				continue
			}
			if now.Sub(u.firstGrant) < 2*c.cfg.LeaseTTL {
				continue
			}
			if hu == nil || u.firstGrant.Before(hu.firstGrant) {
				hj, hu = j, u
			}
		}
	}
	if hu != nil {
		return record(c.grantLocked(hj, hu, w, now, true)), nil
	}
	return record(nil), nil
}

// grantLocked records a lease on u for w and builds the grant.
func (c *Coordinator) grantLocked(j *distJob, u *unit, w *workerState, now time.Time, hedge bool) *LeaseGrant {
	expires := now.Add(c.cfg.LeaseTTL)
	if u.leases == nil {
		u.leases = map[string]time.Time{}
	}
	u.leases[w.id] = expires
	if u.state == unitPending {
		u.state = unitLeased
		u.firstGrant = now
		u.attempts++
	}
	if hedge {
		c.stats.Steals++
	}
	c.stats.Grants++
	c.cfg.Flight.Record("lease.grant", obs.String("worker", w.id), obs.String("key", j.key),
		obs.Int("start", u.start), obs.Int("end", u.end), obs.Bool("hedge", hedge))
	g := &LeaseGrant{
		Kind: j.kind, Key: j.key, Params: j.params, Plan: j.plan,
		Start: u.start, End: u.end, TTLMS: c.cfg.LeaseTTL.Milliseconds(),
	}
	if j.hasDeadline {
		if rem := j.deadline.Sub(now); rem > 0 {
			g.DeadlineMS = rem.Milliseconds()
		} else {
			g.DeadlineMS = 1 // already past due: worker fails fast
		}
	}
	g.Digest = grantDigest(*g)
	return g
}

// Renew extends a worker's lease by one TTL. A draining worker's renewal
// is accepted but does not extend the deadline (lease-non-renewable). A
// lease the coordinator no longer recognises returns ErrGone: the worker
// abandons the unit.
func (c *Coordinator) Renew(_ context.Context, workerID, key string, start, end int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[key]
	if j == nil || j.finished || j.err != nil {
		return ErrGone
	}
	u := j.unitAt(start, end)
	if u == nil || u.state != unitLeased {
		return ErrGone
	}
	if _, ok := u.leases[workerID]; !ok {
		return ErrGone
	}
	w := c.touchWorkerLocked(workerID)
	if w.draining {
		return nil // alive, but the lease runs out its current deadline
	}
	u.leases[workerID] = c.cfg.Clock().Add(c.cfg.LeaseTTL)
	c.stats.Renewals++
	return nil
}

// unitAt returns the unit exactly covering [start,end), or nil.
func (j *distJob) unitAt(start, end int) *unit {
	for _, u := range j.units {
		if u.start == start && u.end == end {
			return u
		}
	}
	return nil
}

// Report accepts an uploaded unit result (a QISNAP01 container). The
// upload is idempotent by (job key, shard range): duplicates and late
// hedged completions are dropped, never double-counted. A report for an
// unknown job (finished, or a pre-restart orphan) is acknowledged and
// dropped — re-reporting must always be safe.
//
// The report's Telemetry replaces the worker's previous one when it passes
// the intake check (Telemetry.valid); otherwise the report is accepted
// without it.
//
// When Config.SpotCheck is set, a seeded fraction of remote reports is
// re-executed locally and compared byte-for-byte before the fold sees it;
// a mismatch quarantines the reporter and the locally recomputed states —
// authoritative, since the engine is deterministic — are accepted in its
// place, so a lying worker costs one local window, never a wrong result.
func (c *Coordinator) Report(ctx context.Context, workerID string, container []byte) error {
	u, err := DecodeUnitResult(container)
	if err != nil {
		return err
	}
	if workerID != "" && u.Worker == "" {
		u.Worker = workerID
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var w *workerState
	if workerID != "" {
		w = c.touchWorkerLocked(workerID)
		if u.Telemetry != nil && u.Telemetry.valid() {
			w.telemetry = u.Telemetry
		}
		if c.quarantinedLocked(w, c.cfg.Clock()) {
			// A quarantined worker's word is worthless either way: tell it
			// to abandon the unit (already requeued at quarantine time).
			return ErrGone
		}
	}
	j := c.jobs[u.Key]
	if j == nil || j.finished || j.err != nil {
		// Late or orphaned: ack the worker so it stops retrying.
		return nil
	}
	tu := j.unitAt(u.Start, u.End)
	if tu == nil {
		return simerr.Invalidf("dist: report range [%d,%d) does not align with job %.16s's unit plan",
			u.Start, u.End, u.Key)
	}
	if tu.state == unitDone {
		c.stats.DupReports++
		return nil
	}
	if tu.verifying {
		// An audit of this range is already in flight. Accepting this
		// delivery now would complete the unit unaudited and let the
		// in-flight spot-check bail out before comparing — a duplicated
		// (or deliberately double-sent) forged report would then never be
		// adjudicated. The audit's verdict settles the unit; this delivery
		// is acked as a duplicate.
		c.stats.DupReports++
		return nil
	}
	if w != nil && c.shouldSpotCheckLocked(j, tu, w) {
		return c.spotCheckLocked(ctx, j, tu, u, w)
	}
	c.acceptUnitLocked(j, tu, u.States, u.Events, u.Worker, u.Trace)
	return nil
}

// shouldSpotCheckLocked draws the seeded spot-check decision for one
// (job, unit, worker) report: pure in (seed, job key, unit range,
// worker id), so a replayed fleet run replays its audit schedule too.
// Workers below spotCheckMinTrust passes face the probation rate.
func (c *Coordinator) shouldSpotCheckLocked(j *distJob, u *unit, w *workerState) bool {
	p := c.cfg.SpotCheck
	if p <= 0 {
		return false
	}
	if w.trust < spotCheckMinTrust {
		p = max(p, spotCheckProbation)
	}
	h := fnv.New64a()
	h.Write([]byte(j.key)) //nolint:errcheck
	h.Write([]byte{0})     //nolint:errcheck
	h.Write([]byte(w.id))  //nolint:errcheck
	var rng [8]byte
	binary.LittleEndian.PutUint64(rng[:], uint64(int64(u.start)))
	h.Write(rng[:]) //nolint:errcheck
	z := uint64(seed) + h.Sum64()*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) < p
}

// spotCheckLocked re-executes a reported unit locally (lock released
// during the run) and adjudicates: match raises the worker's trust and
// accepts the report; mismatch quarantines the worker and accepts the
// local bytes. Called with c.mu held; returns with it held.
func (c *Coordinator) spotCheckLocked(ctx context.Context, j *distJob, tu *unit, u UnitResult, w *workerState) error {
	tu.verifying = true
	core, plan := j.core, j.plan
	c.mu.Unlock()
	// The re-execution must not live or die with the reporter's RPC: a
	// worker that disconnects right after uploading — or whose client-side
	// deadline fires during a slow local re-run — would otherwise cancel
	// the audit and get its report accepted unaudited, a worker-controlled
	// evasion route. Keep the request's values, drop its cancellation.
	states, events, verr := core.RunWindow(context.WithoutCancel(ctx), plan, tu.start, tu.end)
	c.mu.Lock()
	tu.verifying = false

	if verr != nil {
		// Could not verify (resource failure): the world may have moved
		// while the lock was released; otherwise accept the report
		// unaudited rather than stall the job, but say so.
		if j.finished || j.err != nil {
			return nil
		}
		if tu.state == unitDone {
			c.stats.DupReports++
			return nil
		}
		c.cfg.Logger.Warn("dist: spot-check re-execution failed; accepting unaudited",
			"worker", w.id, "key", j.key, "start", tu.start, "end", tu.end, "err", verr)
		c.stats.SpotCheckErrors++
		c.acceptUnitLocked(j, tu, u.States, u.Events, u.Worker, u.Trace)
		return nil
	}

	// The verdict stands no matter what happened while the lock was
	// released (job finished, unit resolved by the local lane): trust and
	// quarantine judge the worker, not the unit, and skipping the
	// adjudication here would be exactly the evasion the audit exists to
	// close.
	match := unitStatesEqual(states, events, u.States, u.Events)
	c.cfg.Flight.Record("worker.spotcheck", obs.String("worker", w.id), obs.String("key", j.key),
		obs.Int("start", tu.start), obs.Int("end", tu.end), obs.Bool("match", match))
	if match {
		c.stats.SpotChecksPassed++
		w.trust++
	} else {
		c.stats.SpotChecksFailed++
		c.quarantineLocked(w, c.cfg.Clock())
	}
	if j.finished || j.err != nil {
		return nil
	}
	if tu.state == unitDone {
		c.stats.DupReports++
		return nil
	}
	if match {
		c.acceptUnitLocked(j, tu, u.States, u.Events, u.Worker, u.Trace)
		return nil
	}
	// The local re-run is the truth; the job proceeds without the liar.
	c.acceptUnitLocked(j, tu, states, events, "local", nil)
	return nil
}

// unitStatesEqual compares two per-shard result sets byte-for-byte.
func unitStatesEqual(aStates []json.RawMessage, aEvents []int, bStates []json.RawMessage, bEvents []int) bool {
	if len(aStates) != len(bStates) || len(aEvents) != len(bEvents) {
		return false
	}
	for i := range aStates {
		if !bytes.Equal(aStates[i], bStates[i]) {
			return false
		}
	}
	for i := range aEvents {
		if aEvents[i] != bEvents[i] {
			return false
		}
	}
	return true
}

// acceptUnitLocked marks a unit done, resolves its leases, grafts the
// worker trace, and advances the fold.
func (c *Coordinator) acceptUnitLocked(j *distJob, u *unit, states []json.RawMessage, events []int, worker string, trace *obs.Trace) {
	u.states = states
	u.events = events
	u.state = unitDone
	u.leases = nil
	u.localInFly = false
	c.stats.UnitsDone++
	if c.cfg.UnitSeconds != nil {
		secs := 0.0
		if !u.firstGrant.IsZero() {
			secs = c.cfg.Clock().Sub(u.firstGrant).Seconds()
		}
		c.cfg.UnitSeconds(worker, secs)
	}
	c.cfg.Flight.Record("lease.done", obs.String("worker", worker), obs.String("key", j.key),
		obs.Int("start", u.start), obs.Int("end", u.end))
	if trace != nil && j.tracer != nil {
		j.tracer.Graft(j.span, *trace,
			obs.String("worker", worker), obs.Int("unit", u.idx))
	}
	c.advanceLocked(j)
	c.cond.Broadcast()
}

// advanceLocked folds the contiguous done-unit prefix shard by shard,
// running the convergence guard at every shard boundary in global order —
// exactly the walk simrun.RunSharded performs, so the first convergence
// crossing (and therefore the converged bytes) is identical to a
// standalone run. Like RunSharded's commit step, an advance hands the new
// frontier to Progress and Checkpoint; one that stops the job leaves the
// snapshot to finishLocked's Final flush, so an advance saves at most once.
func (c *Coordinator) advanceLocked(j *distJob) {
	if j.finished || j.err != nil {
		return
	}
	before := j.frontierShard
	stop := ""
walk:
	for j.frontierUnit < len(j.units) && j.units[j.frontierUnit].state == unitDone {
		u := j.units[j.frontierUnit]
		for k := u.start; k < u.end; k++ {
			if err := j.fold.add(u.states[k-u.start]); err != nil {
				j.err = err
				return
			}
			j.tally.Add(j.plan.ShardShots(k), u.events[k-u.start])
			j.frontierShard = k + 1
			if j.tally.Converged(j.plan.TargetRelStdErr, j.plan.MinShots) {
				stop = simrun.StopConverged
				break walk
			}
		}
		j.frontierUnit++
	}
	if stop == "" && j.frontierUnit == len(j.units) {
		stop = simrun.StopCompleted
	}
	if j.frontierShard > before && j.progress != nil {
		j.progress(j.plan.PrefixShots(j.frontierShard), j.plan.Shots)
	}
	switch {
	case stop != "":
		j.stopReason = stop
		c.finishLocked(j)
	case j.frontierShard > before:
		j.checkpointLocked(false)
	}
}

// checkpointLocked hands the folded prefix to the Checkpoint hook with the
// state simrun.RunSharded hands it; final marks the flush when the job
// stops.
func (j *distJob) checkpointLocked(final bool) {
	if j.checkpoint == nil {
		return
	}
	span := j.tracer.Start("checkpoint.save", j.span, obs.Int("shards", j.frontierShard), obs.Bool("final", final))
	shots, events, noConverge := j.tally.State()
	j.checkpoint(simrun.CheckpointState{Shards: j.frontierShard, Shots: shots, Requested: j.plan.Shots,
		Events: events, NoConverge: noConverge, State: j.fold.state(), Final: final})
	span.End()
}

// finishLocked flushes the final checkpoint and assembles the job result
// from the folded prefix.
func (c *Coordinator) finishLocked(j *distJob) {
	st := simrun.Status{
		Requested:  j.plan.Shots,
		Completed:  j.plan.PrefixShots(j.frontierShard),
		Truncated:  j.stopReason == simrun.StopCanceled || j.stopReason == simrun.StopDeadline,
		Converged:  j.stopReason == simrun.StopConverged,
		StopReason: j.stopReason,
	}
	j.checkpointLocked(true)
	body, err := j.fold.finish(st)
	if err != nil {
		j.err = err
		return
	}
	j.result = body
	j.status = st
	j.finished = true
}

// Sweep expires overdue leases, requeues their units with jittered
// backoff, and degrades units that exhausted their remote attempts to the
// local lane. Driven by Start's ticker in production and called directly
// (with an injected clock) in tests.
func (c *Coordinator) Sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil || j.finished || j.err != nil {
			continue
		}
		for _, u := range j.units {
			if u.state != unitLeased {
				continue
			}
			for w, exp := range u.leases {
				if exp.After(now) {
					continue
				}
				delete(u.leases, w)
				c.stats.Expired++
				c.cfg.Flight.Record("lease.expire", obs.String("worker", w), obs.String("key", key),
					obs.Int("start", u.start), obs.Int("end", u.end))
			}
			if len(u.leases) == 0 {
				c.requeueLocked(u, now)
			}
		}
	}
	c.cond.Broadcast()
}

// requeueLocked returns a lease-less unit to pending with a jittered
// backoff gate, degrading it to the local lane once its remote attempts
// are spent.
func (c *Coordinator) requeueLocked(u *unit, now time.Time) {
	u.state = unitPending
	c.stats.UnitRetries++
	c.cfg.Flight.Record("unit.retry", obs.Int("start", u.start), obs.Int("end", u.end),
		obs.Int("attempts", u.attempts))
	if u.attempts >= maxAttempts {
		u.localOnly = true
		u.notBefore = now
		return
	}
	u.notBefore = now.Add(backoff.Default().Delay(u.attempts-1, c.rnd.Float64))
}

// ProbeAll health-checks every probeable worker and applies eviction /
// re-admission / draining transitions. Eviction requeues the worker's
// leases immediately instead of waiting for expiry.
func (c *Coordinator) ProbeAll(ctx context.Context) {
	c.mu.Lock()
	type target struct{ id, addr string }
	var targets []target
	for id, w := range c.workers {
		if w.registered && w.addr != "" {
			targets = append(targets, target{id, w.addr})
		}
	}
	probe := c.cfg.Probe
	c.mu.Unlock()
	if probe == nil {
		return
	}
	sort.Slice(targets, func(i, k int) bool { return targets[i].id < targets[k].id })

	type outcome struct {
		id     string
		status string
		err    error
	}
	results := make([]outcome, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			status, err := probe(ctx, t.addr)
			results[i] = outcome{t.id, status, err}
		}(i, t)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	for _, r := range results {
		w := c.workers[r.id]
		if w == nil {
			continue
		}
		if r.err != nil {
			w.probeFails++
			if w.probeFails >= probeFailLimit && !w.evicted {
				w.evicted = true
				c.stats.Evictions++
				c.cfg.Flight.Record("worker.evict", obs.String("worker", r.id),
					obs.Int("probe_fails", w.probeFails))
				c.evictLeasesLocked(r.id, now)
			}
			continue
		}
		w.probeFails = 0
		w.lastSeen = now
		if w.evicted {
			w.evicted = false
			c.stats.Readmits++
			c.cfg.Flight.Record("worker.readmit", obs.String("worker", r.id), obs.String("cause", "probe"))
		}
		// Only an explicit drain is non-renewable; "saturated" and
		// "recovering" workers are alive, just busy.
		w.draining = r.status == "draining"
	}
	c.cond.Broadcast()
}

// evictLeasesLocked strips every lease held by a worker and requeues
// lease-less units immediately.
func (c *Coordinator) evictLeasesLocked(workerID string, now time.Time) {
	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil || j.finished || j.err != nil {
			continue
		}
		for _, u := range j.units {
			if u.state != unitLeased {
				continue
			}
			if _, ok := u.leases[workerID]; !ok {
				continue
			}
			delete(u.leases, workerID)
			c.stats.Expired++
			c.cfg.Flight.Record("lease.expire", obs.String("worker", workerID), obs.String("key", key),
				obs.Int("start", u.start), obs.Int("end", u.end), obs.String("cause", "evict"))
			if len(u.leases) == 0 {
				c.requeueLocked(u, now)
			}
		}
	}
}

// Start runs the background sweep + probe loops until ctx is done.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		sweep := time.NewTicker(c.cfg.LeaseTTL / 4)
		probe := time.NewTicker(c.cfg.LeaseTTL)
		defer sweep.Stop()
		defer probe.Stop()
		for {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			case <-sweep.C:
				c.Sweep(c.cfg.Clock())
			case <-probe.C:
				c.ProbeAll(ctx)
			}
		}
	}()
}

// Execute distributes one job across the fleet and blocks until its
// result is complete (or ctx truncates it). The merged result is
// byte-identical to core.RunFull over the same plan.
//
// The core's options carry the run's hooks, and Execute drives them as
// RunFull does: the job starts from Options.Resume (its fold, its tally
// and its unit plan begin at the resumed shard prefix), every fold advance
// feeds Options.Progress (completed shots out of the plan's requested
// shots) and Options.Checkpoint with the committed prefix, and the job's
// stop flushes one Final checkpoint. A snapshot written by either lane
// therefore resumes on either lane. The hooks run under the coordinator
// lock: keep them cheap and never call back into the coordinator.
//
// Degradation ladder: zero live workers at admission returns ErrNoWorkers
// (the caller runs fully local); units that exhaust remote attempts — or
// find the fleet empty mid-job — run on the local lane inside this call.
func (c *Coordinator) Execute(ctx context.Context, kind, key string, params json.RawMessage, core Core, plan Plan) ([]byte, simrun.Status, error) {
	plan = plan.Normalized()
	if plan.Shots <= 0 {
		return nil, simrun.Status{}, simerr.Invalidf("dist: plan has no shots")
	}
	n := plan.NumShards()
	opt := core.options()
	r := opt.Resume
	if r == nil {
		r = &simrun.ResumeState{}
	} else if err := (simrun.Options{ShardSize: plan.ShardSize, Resume: r}).Validate(plan.Shots); err != nil {
		return nil, simrun.Status{}, err
	}
	f, err := core.newFold()
	if err != nil {
		return nil, simrun.Status{}, err
	}

	c.mu.Lock()
	if !c.liveWorkerLocked() {
		c.mu.Unlock()
		return nil, simrun.Status{}, ErrNoWorkers
	}
	if _, dup := c.jobs[key]; dup {
		c.mu.Unlock()
		return nil, simrun.Status{}, simerr.Invalidf("dist: job %.16s already executing", key)
	}
	j := &distJob{
		kind: kind, key: key, params: params, plan: plan, core: core,
		fold:          f,
		progress:      opt.Progress,
		checkpoint:    opt.Checkpoint,
		frontierShard: r.Shards,
		tracer:        obs.FromContext(ctx),
		span:          obs.SpanFromContext(ctx),
	}
	if dl, ok := ctx.Deadline(); ok {
		j.deadline, j.hasDeadline = dl, true
	}
	if r.NoConverge {
		j.tally.Add(r.Shots, -1)
	} else {
		j.tally.Add(r.Shots, r.Events)
	}
	for start := r.Shards; start < n; start += c.cfg.UnitShards {
		end := start + c.cfg.UnitShards
		if end > n {
			end = n
		}
		j.units = append(j.units, &unit{idx: len(j.units), start: start, end: end})
	}
	c.jobs[key] = j
	c.order = append(c.order, key)
	if opt.Resume != nil && j.progress != nil {
		j.progress(r.Shots, plan.Shots)
	}
	// A resumed prefix that covers the plan is a completed run; one that
	// already satisfies the convergence guard stops there, as in RunSharded.
	if len(j.units) > 0 && j.tally.Converged(plan.TargetRelStdErr, plan.MinShots) {
		j.stopReason = simrun.StopConverged
		c.finishLocked(j)
	}
	c.advanceLocked(j)
	c.cond.Broadcast()

	// Wake the wait loop on ctx cancellation.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		case <-stop:
		}
	}()

	for !j.finished && j.err == nil {
		if ctx.Err() != nil {
			// Truncate at the folded prefix — a valid contiguous shard
			// prefix, same as a standalone cancellation.
			if ctx.Err() == context.DeadlineExceeded {
				j.stopReason = simrun.StopDeadline
			} else {
				j.stopReason = simrun.StopCanceled
			}
			c.finishLocked(j)
			break
		}
		if u := c.nextLocalUnitLocked(j); u != nil {
			u.localInFly = true
			c.stats.LocalUnits++
			c.mu.Unlock()
			states, events, err := core.RunWindow(ctx, plan, u.start, u.end)
			c.mu.Lock()
			u.localInFly = false
			switch {
			case err == nil:
				if u.state != unitDone {
					c.acceptUnitLocked(j, u, states, events, "local", nil)
				}
			case ctx.Err() != nil:
				// Interrupted window: loop truncates on the next pass.
			default:
				j.err = err
			}
			continue
		}
		c.cond.Wait()
	}

	result, status, err := j.result, j.status, j.err
	delete(c.jobs, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if err != nil {
		return nil, simrun.Status{}, err
	}
	return result, status, nil
}

// nextLocalUnitLocked picks a unit the coordinator itself must run: one
// degraded to the local lane, or — when the fleet has zero live workers
// mid-job — any runnable pending unit (graceful degradation instead of a
// stalled job).
func (c *Coordinator) nextLocalUnitLocked(j *distJob) *unit {
	fleetDown := !c.liveWorkerLocked()
	for _, u := range j.units {
		if u.state != unitPending || u.localInFly {
			continue
		}
		if u.localOnly || fleetDown {
			return u
		}
	}
	return nil
}

// FleetWorker is one worker's row in the fleet status view.
type FleetWorker struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// State is the precedence-resolved health verdict:
	// quarantined > evicted > draining > healthy.
	State      string `json:"state"`
	Trust      int    `json:"trust"`
	ProbeFails int    `json:"probe_fails,omitempty"`
	// Leases counts the worker's outstanding (unexpired-by-sweep) leases.
	Leases int `json:"leases"`
	// LastSeenAgeMS is milliseconds since the last sign of life (claim,
	// renewal, report, register, successful probe); -1 when never seen.
	LastSeenAgeMS int64 `json:"last_seen_age_ms"`
	// QuarantineLeftMS is the remaining shun time for quarantined workers.
	QuarantineLeftMS int64 `json:"quarantine_left_ms,omitempty"`
	// Telemetry is the worker's latest accepted report telemetry (nil
	// until one arrives). It feeds the coordinator's qisimd_fleet_* series
	// and the status endpoint's derived fields.
	Telemetry *Telemetry `json:"-"`
}

// FleetJob is one in-flight distributed job's dispatch progress.
type FleetJob struct {
	Key            string `json:"key"`
	Kind           string `json:"kind"`
	Units          int    `json:"units"`
	UnitsDone      int    `json:"units_done"`
	UnitsLeased    int    `json:"units_leased"`
	UnitsPending   int    `json:"units_pending"`
	UnitsLocalOnly int    `json:"units_local_only,omitempty"`
	FrontierShard  int    `json:"frontier_shard"`
	CompletedShots int    `json:"completed_shots"`
	RequestedShots int    `json:"requested_shots"`
}

// FleetStatus is the coordinator's aggregate fleet view, the data behind
// GET /v1/fleet/status and the qisimd_fleet_* metric families.
type FleetStatus struct {
	Workers []FleetWorker `json:"workers"`
	Jobs    []FleetJob    `json:"jobs"`
	Stats   Stats         `json:"stats"`
}

// FleetSnapshot copies the fleet state under the coordinator lock. Workers
// sort by ID and jobs keep admission order, so consecutive snapshots of a
// quiet fleet are identical (deterministic scrapes and diffable tests).
// Read-only: it never flips lazy state like timed quarantine re-admission.
func (c *Coordinator) FleetSnapshot() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()

	leases := map[string]int{}
	st := FleetStatus{Workers: []FleetWorker{}, Jobs: []FleetJob{}, Stats: c.stats}
	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil {
			continue
		}
		fj := FleetJob{
			Key: j.key, Kind: j.kind, Units: len(j.units),
			FrontierShard:  j.frontierShard,
			CompletedShots: j.plan.PrefixShots(j.frontierShard),
			RequestedShots: j.plan.Shots,
		}
		for _, u := range j.units {
			switch u.state {
			case unitDone:
				fj.UnitsDone++
			case unitLeased:
				fj.UnitsLeased++
				for w := range u.leases {
					leases[w]++
				}
			default:
				fj.UnitsPending++
			}
			if u.localOnly {
				fj.UnitsLocalOnly++
			}
		}
		st.Jobs = append(st.Jobs, fj)
	}

	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		fw := FleetWorker{
			ID: w.id, Addr: w.addr, State: "healthy",
			Trust: w.trust, ProbeFails: w.probeFails,
			Leases: leases[w.id], LastSeenAgeMS: -1,
			Telemetry: w.telemetry,
		}
		switch {
		case w.quarantined && now.Before(w.quarantinedUntil):
			fw.State = "quarantined"
			fw.QuarantineLeftMS = w.quarantinedUntil.Sub(now).Milliseconds()
		case w.evicted:
			fw.State = "evicted"
		case w.draining:
			fw.State = "draining"
		}
		if !w.lastSeen.IsZero() {
			fw.LastSeenAgeMS = now.Sub(w.lastSeen).Milliseconds()
		}
		st.Workers = append(st.Workers, fw)
	}
	return st
}
