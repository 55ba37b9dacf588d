package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"log/slog"
	"math/rand"
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
	// spotCheckProbation is the check fraction for workers below
	// spotCheckMinTrust passes (never below Config.SpotCheck): fresh
	// arrivals and quarantine returnees prove themselves before dropping to
	// the base rate.
	spotCheckProbation = 0.5
	spotCheckMinTrust  = 3
	// seed seeds the requeue jitter and the spot-check draw; jitter never
	// touches simulation results.
	seed = 1
	// forgetAfter is how many lease TTLs of silence make Sweep forget a
	// worker.
	forgetAfter = 20
)

// Config parameterises a Coordinator. It names no store: a job's one
// durable state is the checkpoint its core's options carry (see Execute).
type Config struct {
	// LeaseTTL is a lease's deadline extension per grant/renewal
	// (default 15s). It paces the rest of the lease machinery: the expiry
	// sweep runs every TTL/4, a worker not heard from for 2×TTL is lost, a
	// leased unit older than 2×TTL may be hedged, a quarantine lasts
	// 4×TTL, and the sweep forgets a worker silent for 20×TTL.
	LeaseTTL time.Duration
	// UnitShards is the work-unit granularity in shards (default 16: a
	// unit then runs for longer than its claim/report round trip, and unit
	// boundaries never move a result byte).
	UnitShards int
	// Clock injects time for tests (default time.Now).
	Clock func() time.Time
	// SpotCheck is the untrusted-worker defense: the seeded fraction of
	// remote unit reports the coordinator re-executes locally and compares
	// byte-for-byte before trusting. 0 disables spot-checking. A worker
	// whose report mismatches is quarantined (leases stripped, no grants,
	// reports ignored) for 4×LeaseTTL and its trust resets.
	SpotCheck float64
	Logger    *slog.Logger
	// Flight, when set, records worker admissions, lease transitions,
	// retries, quarantines and spot-check verdicts as events on the shared
	// flight-recorder tracer (nil disables; Event is nil-safe).
	Flight *obs.Tracer
	// UnitSeconds, when set, observes each accepted unit's wall time from
	// first grant to acceptance, on either lane. Called under the
	// coordinator lock: keep it O(1).
	UnitSeconds func(seconds float64)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.UnitShards <= 0 {
		c.UnitShards = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	c.Logger = obs.OrDiscard(c.Logger)
	return c
}

// Stats is a snapshot of the coordinator's cumulative counters.
type Stats struct {
	Grants      int // lease grants (primary + hedged)
	Renewals    int
	Expired     int // leases lost to deadline expiry
	UnitRetries int // units requeued after losing all leases
	Steals      int // hedged duplicate grants
	LocalUnits  int // units run on the coordinator's local lane
	UnitsDone   int
	DupReports  int // idempotent duplicate uploads dropped

	SpotChecksPassed   int // spot-checked reports matching the local re-run
	SpotChecksFailed   int // mismatches → worker quarantined
	SpotCheckErrors    int // re-executions that failed; the report was accepted unaudited
	Quarantines        int // workers quarantined
	QuarantineReadmits int // workers re-admitted after their quarantine elapsed
	IdemReplays        int // duplicate claim deliveries answered from the idempotency record
	Degraded           int // jobs admitted while no worker was live
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
	span       *obs.Span            // dist.unit: first grant (or local start) to acceptance
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

	// The fold of the committed shard prefix, which drives the hooks of the
	// core's options as simrun.RunSharded's fold does.
	fold         fold
	frontierUnit int // next unit awaiting fold
	finished     bool
	result       []byte
	status       simrun.Status
	err          error
}

type workerState struct {
	id string

	// Untrusted-worker defense state. Quarantine is deliberately separate
	// from liveness: a lost worker is live again on its next contact,
	// quarantine is an integrity verdict only time reverses.
	trust            int       // passed spot-checks since last reset
	quarantined      bool      // shunned: no grants, reports ignored
	quarantinedUntil time.Time // timed re-admission point

	// Claim idempotency: duplicated deliveries of the same claim replay
	// the recorded grant instead of leaking a second lease. Deliveries of
	// one claim are adjacent on the wire, so one slot per worker suffices.
	lastIdemKey string
	lastGrant   *LeaseGrant

	// The telemetry of the worker's latest report that passed the intake
	// check, and the time of its last contact (claim, renewal, report): the
	// fleet's one liveness signal (see stateLocked).
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
	// draining is set once Start's context ends: held claims answer at once.
	draining bool
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

// stateLocked is w's state at now, by precedence: quarantined while its
// quarantine lasts, lost once the coordinator has not heard from it for
// 2×LeaseTTL, healthy otherwise; only a healthy worker is live. A live
// worker is heard from at least every TTL/3 while it holds a lease and
// every 1.5 poll intervals while it is idle. Read-only: an elapsed
// quarantine ends on the worker's next claim or report (quarantinedLocked).
func (c *Coordinator) stateLocked(w *workerState, now time.Time) string {
	switch {
	case w.quarantined && now.Before(w.quarantinedUntil):
		return "quarantined"
	case now.Sub(w.lastSeen) >= 2*c.cfg.LeaseTTL:
		return "lost"
	}
	return "healthy"
}

// liveWorkerLocked reports whether at least one worker can accept new
// grants.
func (c *Coordinator) liveWorkerLocked() bool {
	now := c.cfg.Clock()
	for _, w := range c.workers {
		if c.stateLocked(w, now) == "healthy" {
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
	c.cfg.Flight.Event("worker.readmit", obs.String("worker", w.id), obs.String("cause", "quarantine-expired"))
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
	c.cfg.Flight.Event("worker.quarantine", obs.String("worker", w.id),
		obs.String("until", w.quarantinedUntil.UTC().Format(time.RFC3339)))
	c.cfg.Logger.Warn("dist: worker quarantined after spot-check mismatch",
		"worker", w.id, "until", w.quarantinedUntil)
	c.evictLeasesLocked(w.id, now)
}

// touchWorkerLocked stamps a contact (claim, renewal, report) and admits
// the worker the first time it is heard from, or the first time since
// Sweep forgot it.
func (c *Coordinator) touchWorkerLocked(id string) *workerState {
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id}
		c.workers[id] = w
		c.cfg.Flight.Event("worker.register", obs.String("worker", id))
	}
	w.lastSeen = c.cfg.Clock()
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

// MaxHold caps how long Claim holds an empty claim: LeaseTTL/4, the sweep
// period, so a held claim never outlives the lease machinery's pace.
func (c *Coordinator) MaxHold() time.Duration { return c.cfg.LeaseTTL / 4 }

// Claim hands the worker its next work unit, or nil when none is
// available. Pending units gate on their backoff window; when nothing is
// pending, an old straggler unit may be hedge-dispatched as a duplicate
// lease (work stealing — first report wins).
//
// wait holds an empty claim here instead of answering nil at once: Claim
// waits until a unit becomes claimable, wait (capped at MaxHold) elapses,
// ctx ends or the coordinator drains, and checks for a grant once more
// before it answers nil, so a unit held back by its requeue backoff is
// granted no later than the end of the hold. 0 answers at once, and so
// does a claim from a quarantined worker.
//
// idemKey makes the claim safe under duplicated delivery: a repeat of the
// worker's most recent key replays the recorded outcome (grant or no-work)
// instead of leasing a second unit. A repeat that arrives while the first
// delivery is held holds beside it, and whichever answers first records
// the outcome the other replays. Workers mint a fresh key per logical
// claim; "" opts out (in-process callers that cannot be duplicated).
func (c *Coordinator) Claim(ctx context.Context, workerID, idemKey string, wait time.Duration) (*LeaseGrant, error) {
	if workerID == "" {
		return nil, simerr.Invalidf("dist: claim: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorkerLocked(workerID)
	hold := ctx
	if wait = min(wait, c.MaxHold()); wait > 0 {
		var cancel context.CancelFunc
		hold, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
		defer c.wakeOnDone(hold)()
	}
	for {
		if idemKey != "" && idemKey == w.lastIdemKey {
			c.stats.IdemReplays++
			return w.lastGrant, nil
		}
		now := c.cfg.Clock()
		shunned := c.quarantinedLocked(w, now)
		var g *LeaseGrant
		if !shunned {
			g = c.nextGrantLocked(w, now)
		}
		if g != nil || shunned || wait <= 0 || hold.Err() != nil || c.draining {
			if idemKey != "" {
				w.lastIdemKey, w.lastGrant = idemKey, g
			}
			return g, nil
		}
		c.cond.Wait()
	}
}

// wakeOnDone wakes every waiter on c.cond when ctx ends, so each re-checks
// its own context; the returned stop ends the watch.
func (c *Coordinator) wakeOnDone(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// nextGrantLocked leases w the first runnable pending unit in admission
// order or, with none, hedges the oldest straggler w does not hold; nil
// when there is neither.
func (c *Coordinator) nextGrantLocked(w *workerState, now time.Time) *LeaseGrant {
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
			return c.grantLocked(j, u, w, now, false)
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
			if _, mine := u.leases[w.id]; mine {
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
		return c.grantLocked(hj, hu, w, now, true)
	}
	return nil
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
	j.startUnitSpan(u)
	if hedge {
		c.stats.Steals++
	}
	c.stats.Grants++
	c.cfg.Flight.Event("lease.grant", obs.String("worker", w.id), obs.String("key", j.key),
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

// Renew extends a worker's lease by one TTL. A lease the coordinator no
// longer recognises returns ErrGone before the renewal counts as contact:
// the worker abandons the unit.
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
	c.touchWorkerLocked(workerID)
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
	c.cfg.Flight.Event("worker.spotcheck", obs.String("worker", w.id), obs.String("key", j.key),
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

// startUnitSpan opens u's dist.unit span the first time the unit runs
// anywhere (its first grant, or the local lane), under the job's span and
// on the job tracer's clock; acceptance closes it.
func (j *distJob) startUnitSpan(u *unit) {
	if u.span == nil && j.tracer != nil {
		u.span = j.tracer.Start("dist.unit", j.span,
			obs.Int("unit", u.idx), obs.Int("start", u.start), obs.Int("end", u.end))
	}
}

// acceptUnitLocked marks a unit done, resolves its leases, grafts the
// worker trace into the unit's span, and advances the fold.
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
		c.cfg.UnitSeconds(secs)
	}
	c.cfg.Flight.Event("lease.done", obs.String("worker", worker), obs.String("key", j.key),
		obs.Int("start", u.start), obs.Int("end", u.end))
	if trace != nil && j.tracer != nil {
		// The worker's clock is not ours: its window lands at the end of the
		// unit span, where the report arrived, and never before the grant.
		j.startUnitSpan(u)
		j.tracer.Graft(u.span, *trace,
			obs.String("worker", worker), obs.Int("unit", u.idx))
	}
	u.span.End()
	c.advanceLocked(j)
	c.cond.Broadcast()
}

// advanceLocked folds the contiguous done-unit prefix shard by shard into
// the job's fold, which checks the stop rule at every shard boundary in
// global order as simrun.RunSharded's commit step does, so the first
// convergence crossing (and therefore the converged bytes) is identical to
// a standalone run. An advance commits once, and one that stops the job
// finishes it.
func (c *Coordinator) advanceLocked(j *distJob) {
	if j.finished || j.err != nil {
		return
	}
	before, _ := j.fold.Frontier()
	stop := false
walk:
	for j.frontierUnit < len(j.units) && j.units[j.frontierUnit].state == unitDone {
		u := j.units[j.frontierUnit]
		for i, state := range u.states {
			var err error
			if stop, err = j.fold.add(state, u.events[i]); err != nil {
				j.err = err
				return
			}
			if stop {
				break walk
			}
		}
		j.frontierUnit++
	}
	if after, _ := j.fold.Frontier(); after > before {
		j.fold.Commit(j.spanContext())
	}
	if stop {
		c.finishLocked(j, "")
	}
}

// finishLocked runs the fold's Final flush and assembles the job result;
// reason (canceled or deadline) counts only when the fold did not stop the
// job itself.
func (c *Coordinator) finishLocked(j *distJob, reason string) {
	body, st, err := j.fold.finish(j.spanContext(), reason)
	if err != nil {
		j.err = err
		return
	}
	j.result = body
	j.status = st
	j.finished = true
}

// spanContext carries the job's tracer and span, so the fold's
// checkpoint.save spans open under the job span.
func (j *distJob) spanContext() context.Context {
	return obs.ContextWithSpan(context.Background(), j.tracer, j.span)
}

// Sweep expires overdue leases, requeues their units with jittered
// backoff, degrades units that exhausted their remote attempts to the
// local lane, and forgets every worker silent for forgetAfter×LeaseTTL.
// Driven by Start's ticker in production and called directly (with an
// injected clock) in tests.
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
				c.cfg.Flight.Event("lease.expire", obs.String("worker", w), obs.String("key", key),
					obs.Int("start", u.start), obs.Int("end", u.end))
			}
			if len(u.leases) == 0 {
				c.requeueLocked(u, now)
			}
		}
	}
	// A worker this silent holds no lease (a lease ends one TTL after its
	// last renewal, and the loop above has expired it) and no quarantine
	// (4×TTL), so forgetting it loses nothing: its next contact admits it
	// afresh. Without this, every worker restarted under a fresh ID would
	// leave one more lost row, and one more label value on each per-worker
	// series, for the coordinator's whole life.
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) >= forgetAfter*c.cfg.LeaseTTL {
			delete(c.workers, id)
			c.cfg.Flight.Event("worker.forget", obs.String("worker", id))
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
	c.cfg.Flight.Event("unit.retry", obs.Int("start", u.start), obs.Int("end", u.end),
		obs.Int("attempts", u.attempts))
	if u.attempts >= maxAttempts {
		u.localOnly = true
		u.notBefore = now
		return
	}
	u.notBefore = now.Add(backoff.Default().Delay(u.attempts-1, c.rnd.Float64))
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
			c.cfg.Flight.Event("lease.expire", obs.String("worker", workerID), obs.String("key", key),
				obs.Int("start", u.start), obs.Int("end", u.end), obs.String("cause", "evict"))
			if len(u.leases) == 0 {
				c.requeueLocked(u, now)
			}
		}
	}
}

// Start runs the background sweep until ctx is done; then the coordinator
// drains: held claims answer at once, and no claim holds again.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		sweep := time.NewTicker(c.cfg.LeaseTTL / 4)
		defer sweep.Stop()
		for {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.draining = true
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			case <-sweep.C:
				c.Sweep(c.cfg.Clock())
			}
		}
	}()
}

// Execute distributes one job across the fleet and blocks until its
// result is complete (or ctx truncates it). The merged result is
// byte-identical to core.RunFull over the same plan.
//
// Execute folds through the simrun.Fold that RunFull's engine commits
// through, built on the same options: it validates the plan and the core's
// options as RunFull does, and refuses what RunFull refuses, with the same
// error. The fold starts from Options.Resume, and so does the unit plan;
// every fold advance feeds Options.Progress (completed shots out of the
// plan's requested shots) and, unless it stops the job, Options.Checkpoint
// with the committed prefix; and the job's stop flushes one Final
// checkpoint. A snapshot written by either lane therefore resumes on
// either lane. The hooks run under the coordinator lock (the resumed
// prefix's Progress call excepted): keep them cheap and never call back
// into the coordinator.
//
// Degradation ladder: a unit that exhausts its remote attempts runs on the
// local lane inside this call, and so does every pending unit while no
// worker is live — from admission (a job recovered at boot, counted in
// Stats.Degraded) or once the coordinator has heard from no worker for
// 2×LeaseTTL mid-job (the sweep's broadcast wakes this call). A worker that
// claims later takes the units left.
//
// When the context carries a tracer, each unit records a dist.unit span
// under the context's span, from its first grant (or local start) to its
// acceptance; a worker's window trace is grafted inside it and a local
// window runs under it.
func (c *Coordinator) Execute(ctx context.Context, kind, key string, params json.RawMessage, core Core, plan Plan) ([]byte, simrun.Status, error) {
	f, err := core.newFold(plan)
	if err != nil {
		return nil, simrun.Status{}, err
	}
	from, _ := f.Frontier()

	c.mu.Lock()
	if _, dup := c.jobs[key]; dup {
		c.mu.Unlock()
		return nil, simrun.Status{}, simerr.Invalidf("dist: job %.16s already executing", key)
	}
	if !c.liveWorkerLocked() {
		c.stats.Degraded++
	}
	j := &distJob{
		kind: kind, key: key, params: params, plan: plan, core: core, fold: f,
		tracer: obs.FromContext(ctx),
		span:   obs.SpanFromContext(ctx),
	}
	if dl, ok := ctx.Deadline(); ok {
		j.deadline, j.hasDeadline = dl, true
	}
	for start, n := from, plan.NumShards(); start < n; start += c.cfg.UnitShards {
		end := min(start+c.cfg.UnitShards, n)
		j.units = append(j.units, &unit{idx: len(j.units), start: start, end: end})
	}
	c.jobs[key] = j
	c.order = append(c.order, key)
	// A resumed prefix the fold stopped on (it covers the plan or meets the
	// convergence guard) is a finished run, as in RunSharded.
	if f.Stopped() {
		c.finishLocked(j, "")
	}
	c.cond.Broadcast()
	defer c.wakeOnDone(ctx)()

	for !j.finished && j.err == nil {
		if ctx.Err() != nil {
			// Truncate at the folded prefix — a valid contiguous shard
			// prefix, same as a standalone cancellation.
			reason := simrun.StopCanceled
			if ctx.Err() == context.DeadlineExceeded {
				reason = simrun.StopDeadline
			}
			c.finishLocked(j, reason)
			break
		}
		if u := c.nextLocalUnitLocked(j); u != nil {
			u.localInFly = true
			c.stats.LocalUnits++
			j.startUnitSpan(u)
			uctx := obs.ContextWithSpan(ctx, j.tracer, u.span)
			c.mu.Unlock()
			states, events, err := core.RunWindow(uctx, plan, u.start, u.end)
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

	// Units still in flight when the job stops end their spans with it.
	for _, u := range j.units {
		u.span.End()
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
// degraded to the local lane, or — while the fleet has zero live workers —
// any runnable pending unit (graceful degradation instead of a stalled
// job).
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
	ID string `json:"id"`
	// State is the precedence-resolved verdict:
	// quarantined > lost > healthy.
	State string `json:"state"`
	Trust int    `json:"trust"`
	// Leases counts the worker's outstanding (unexpired-by-sweep) leases.
	Leases int `json:"leases"`
	// LastSeenAgeMS is milliseconds since the last contact (claim,
	// renewal, report).
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
		fj := FleetJob{Key: j.key, Kind: j.kind, Units: len(j.units), RequestedShots: j.plan.Shots}
		fj.FrontierShard, fj.CompletedShots = j.fold.Frontier()
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
			ID: w.id, State: c.stateLocked(w, now), Trust: w.trust,
			Leases: leases[w.id], LastSeenAgeMS: now.Sub(w.lastSeen).Milliseconds(),
			Telemetry: w.telemetry,
		}
		if fw.State == "quarantined" {
			fw.QuarantineLeftMS = w.quarantinedUntil.Sub(now).Milliseconds()
		}
		st.Workers = append(st.Workers, fw)
	}
	return st
}
