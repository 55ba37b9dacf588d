// Package jobs is qisimd's asynchronous execution layer: bounded per-tenant
// queues feeding a worker pool that drives the context-aware simulation
// entry points (internal/simrun's ...Ctx variants) and lands completed
// results in the content-addressed cache (internal/rescache).
//
// The flow mirrors the CLI contract one level up the stack:
//
//   - every job runs under a per-job context derived from the manager's
//     base context (plus an optional per-job deadline);
//   - cancellation — a drain, a deadline, an explicit Cancel — surfaces
//     through the existing partial-result path: the job finishes "done" with
//     a Truncated-flagged status and a best-so-far body, never a hang or a
//     lost run;
//   - hard failures carry their simerr class, which the HTTP layer maps to
//     status codes exactly as the CLIs map them to exit codes 3–7.
//
// Duplicate submissions coalesce (singleflight): while a job for key K is
// queued or running, submitting K again returns the same job instead of a
// second computation, and a completed K is served straight from the cache.
// Deterministic sharding makes this sound — the cached bytes are bit-exactly
// what a recomputation would produce. Truncated partials are deliberately
// NEVER cached (they are the one non-deterministic outcome).
//
// Multi-tenancy and streaming:
//
//   - submissions carry an optional tenant; queued work is scheduled fair
//     round-robin BETWEEN tenants (one job per tenant per pass), so a bulk
//     backlog from one tenant cannot starve another's single analysis;
//   - Config.TenantQuota bounds each tenant's in-flight jobs
//     (ErrQuotaExceeded, HTTP 429 with a distinct body);
//   - every job keeps a bounded event log (state transitions plus
//     Publish()-ed custom events such as a sweep's partial Pareto
//     frontiers) that Subscribe streams live — the feed behind
//     GET /v1/jobs/{id}/events.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// Kind names one of the service's job families.
type Kind string

// The served analysis kinds.
const (
	KindScalabilityAnalyze Kind = "scalability.analyze"
	KindScalabilitySweep   Kind = "scalability.sweep"
	KindSurfaceMC          Kind = "surface.mc"
	// KindPauliMC is a QASM program's estimated success probability, a
	// closed form: unlike the other .mc kinds it draws no shots.
	KindPauliMC   Kind = "pauli.mc"
	KindReadoutMC Kind = "readout.mc"
	// KindDSESweep is a design-space exploration: it expands a parameter
	// grid, evaluates its points in grid order and folds them into a
	// streamed Pareto frontier.
	KindDSESweep Kind = "dse.sweep"
	// KindDSEPoint is one grid-point evaluation, submitted on its own.
	KindDSEPoint Kind = "dse.point"
)

// Kinds lists every served kind (stable order, for docs and validation).
func Kinds() []Kind {
	return []Kind{KindScalabilityAnalyze, KindScalabilitySweep, KindSurfaceMC, KindPauliMC, KindReadoutMC, KindDSESweep, KindDSEPoint}
}

// Valid reports whether k names a served kind.
func (k Kind) Valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// State is a job's lifecycle state.
type State string

// Lifecycle: queued → running → done | failed. Cached submissions are born
// done.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Runner computes one job: it must honour ctx (the drain/deadline channel),
// feed progress into the callback (wire it to simrun.Options.Progress), and
// return the serialized result body plus the run's flagged status. A
// cancelled run returns (partialBody, truncatedStatus, nil) — the partial-
// result contract — while hard failures return a simerr-classed error.
type Runner func(ctx context.Context, progress func(completed, requested int)) (body []byte, st simrun.Status, err error)

// Progress is a job's live shot-level progress (zero until the engine
// commits its first shard).
type Progress struct {
	Completed int `json:"completed"`
	Requested int `json:"requested"`
}

// Snapshot is an immutable copy of a job's state, safe to serialize.
type Snapshot struct {
	ID         string          `json:"id"`
	Kind       Kind            `json:"kind"`
	Key        rescache.Key    `json:"key"`
	State      State           `json:"state"`
	Cached     bool            `json:"cached"`
	Tenant     string          `json:"tenant,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Progress   Progress        `json:"progress"`
	Status     *simrun.Status  `json:"status,omitempty"`
	ErrorClass string          `json:"error_class,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Hooks are the manager's observability callbacks (all optional). They fire
// outside the manager lock.
type Hooks struct {
	// JobFinished fires once per executed job with its ID and terminal
	// state, simerr class ("" unless failed), final status (nil when failed
	// before a run produced one) and wall-clock duration. Cached
	// submissions do not fire it (nothing executed). The job's finished
	// trace — when the manager traces jobs — is already retrievable via
	// Manager.Trace(id) by the time the hook fires.
	JobFinished func(id string, kind Kind, state State, errClass string, st *simrun.Status, dur time.Duration)
	// JobPanicked fires from inside the panic backstop with the recovered
	// value, before the panic is flattened into a typed failed job — the
	// hook's chance to persist crash context (e.g. a flight-recorder
	// dump) while the evidence still exists. It runs on the panicking
	// worker goroutine; keep it cheap and never panic from it.
	JobPanicked func(id string, recovered any)
}

// Outcome classifies what Submit did.
type Outcome int

const (
	// OutcomeQueued: a new computation was enqueued.
	OutcomeQueued Outcome = iota
	// OutcomeCoalesced: an identical job is already in flight; the caller
	// was attached to it (singleflight).
	OutcomeCoalesced
	// OutcomeCached: the result was already in the cache; the returned job
	// is born done with the cached bytes.
	OutcomeCached
)

// String renders the outcome for logs and HTTP responses.
func (o Outcome) String() string {
	switch o {
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeCached:
		return "cached"
	default:
		return "queued"
	}
}

// Typed submission failures.
var (
	// ErrQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("job queue full")
	// ErrQuotaExceeded: the tenant already has TenantQuota jobs in flight
	// (HTTP 429 with a distinct quota-exceeded body).
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrDraining: the manager stopped accepting work (classed Interrupted,
	// HTTP 503).
	ErrDraining = simerr.Interruptedf("job manager draining")
)

// Config parameterises a Manager.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the queued-but-not-running backlog across all
	// tenants (default 64).
	QueueDepth int
	// JobTimeout caps each job's wall clock (0 = none); expiry surfaces
	// through the partial-result path like any deadline.
	JobTimeout time.Duration
	// MaxRecords bounds retained finished-job records (default 1024); the
	// oldest finished records are evicted first. In-flight jobs are never
	// evicted.
	MaxRecords int
	// TenantQuota bounds each tenant's in-flight (queued or running) jobs.
	// 0 = unlimited.
	TenantQuota int
	// Cache receives completed (non-truncated) results and serves repeat
	// submissions. Optional: nil disables caching.
	Cache *rescache.Cache
	// Journal, when set, write-ahead-logs every accepted submission and its
	// terminal outcome so queued/running work survives a daemon restart (see
	// journal.go). Journal write failures degrade durability — they are
	// counted on the journal and surfaced through metrics — but never fail a
	// submission or a job.
	Journal *Journal
	// BaseContext is the ancestor of every job context (default
	// context.Background()). Tests use it to inject deterministic
	// cancellation.
	BaseContext context.Context
	// Hooks are the observability callbacks.
	Hooks Hooks
	// Logger receives the manager's lifecycle records (submissions, state
	// transitions, journal degradation) with job IDs attached. Nil = silent.
	Logger *slog.Logger
	// TraceMaxSpans, when positive, makes the manager trace every executed
	// job: a per-job obs.Tracer (span buffer bounded at this many spans)
	// records a "job" root span with "queue.wait" and "executor" children,
	// journal appends, and — via the job context handed to the Runner — the
	// engine's mc.run/shard/merge/checkpoint spans. Finished traces are
	// served by Manager.Trace. Zero disables job tracing entirely.
	TraceMaxSpans int
}

// job is the manager-internal record. Mutable fields are guarded by the
// manager mutex; the progress cells are atomics so the engine's Progress
// hook never contends with HTTP polls.
type job struct {
	id      string
	kind    Kind
	key     rescache.Key
	tenant  string
	cached  bool
	created time.Time

	run    Runner
	params json.RawMessage // journaled request params (nil without a journal)

	ctx      context.Context // per-job cancellation root (nil for cached-born)
	cancelFn context.CancelFunc

	state             State
	started, finished time.Time
	status            *simrun.Status
	errClass, errMsg  string
	result            []byte

	// Bounded event log + live subscriptions (see events.go).
	events       []Event
	eventSeq     int
	subs         map[int]chan Event
	subSeq       int
	eventsClosed bool

	// Tracing (nil/empty when Config.TraceMaxSpans == 0 or the job was
	// served from cache). rootSpan covers submit→finalize, queueSpan the
	// queued interval; trace is the finished snapshot, stored under the
	// same lock hold as the terminal state, so pollers that see a terminal
	// state can always fetch it.
	tr        *obs.Tracer
	rootSpan  *obs.Span
	queueSpan *obs.Span
	trace     *obs.Trace

	progressDone, progressTotal atomic.Int64
}

// Manager owns the queues, the worker pool, the job records and the
// singleflight index.
type Manager struct {
	cfg    Config
	log    *slog.Logger
	ctx    context.Context // ancestor of every job context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signals workers when work arrives or drain begins
	seq      int64
	byID     map[string]*job
	order    []*job // creation order, for record eviction
	inflight map[rescache.Key]*job
	queues   map[string][]*job // per-tenant FIFO of queued jobs
	ring     []string          // round-robin order over tenants with queued work
	queued   int               // total queued (not yet running) jobs
	tenants  map[string]int    // in-flight jobs per tenant (quota)
	started  bool
	draining bool

	wg sync.WaitGroup
}

// NewManager builds a Manager; call Start before submitting.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 1024
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	m := &Manager{
		cfg:      cfg,
		log:      obs.OrDiscard(cfg.Logger),
		ctx:      ctx,
		cancel:   cancel,
		byID:     map[string]*job{},
		inflight: map[rescache.Key]*job{},
		queues:   map[string][]*job{},
		tenants:  map[string]int{},
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Start launches the worker pool. Idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.wg.Add(m.cfg.Workers)
	for i := 0; i < m.cfg.Workers; i++ {
		go m.worker()
	}
}

// worker pulls jobs round-robin across tenants until drain empties the
// backlog (a drained backlog still executes — against the cancelled base
// context — so every accepted job finalizes as a Truncated partial rather
// than vanishing, matching the pre-tenant queue semantics).
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for m.queued == 0 && !m.draining {
			m.cond.Wait()
		}
		if m.queued == 0 {
			m.mu.Unlock()
			return
		}
		j := m.nextLocked()
		m.mu.Unlock()
		m.execute(j)
		m.mu.Lock()
	}
}

// nextLocked pops the head of the next tenant's queue, rotating the ring so
// each tenant with queued work gets one slot per pass.
func (m *Manager) nextLocked() *job {
	for len(m.ring) > 0 {
		t := m.ring[0]
		q := m.queues[t]
		if len(q) == 0 {
			m.ring = m.ring[1:]
			delete(m.queues, t)
			continue
		}
		j := q[0]
		if len(q) == 1 {
			m.ring = m.ring[1:]
			delete(m.queues, t)
		} else {
			m.queues[t] = q[1:]
			m.ring = append(m.ring[1:], t)
		}
		m.queued--
		return j
	}
	return nil
}

// enqueueLocked appends j to its tenant's queue and wakes one worker.
func (m *Manager) enqueueLocked(j *job) {
	if len(m.queues[j.tenant]) == 0 {
		m.ring = append(m.ring, j.tenant)
	}
	m.queues[j.tenant] = append(m.queues[j.tenant], j)
	m.queued++
	m.cond.Signal()
}

// Submit routes one request: cache hit → a job born done with the cached
// bytes; key already in flight → the existing job (coalesced); otherwise a
// new queued job. The cache probe and the singleflight insert happen under
// one lock, so concurrent duplicates can never both enqueue.
//
// params is the raw request-params JSON retained in the journal (nil when no
// journal is configured or the caller has no params) so the exact request
// can be rebuilt and resubmitted after a restart. Cached and coalesced
// submissions are not journaled — nothing new was enqueued. tenant
// attributes the job for fair scheduling and quotas ("" is the anonymous
// tenant, itself scheduled fairly against named ones).
func (m *Manager) Submit(kind Kind, key rescache.Key, params json.RawMessage, run Runner, tenant string) (Snapshot, Outcome, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Snapshot{}, OutcomeQueued, ErrDraining
	}
	if j, ok := m.inflight[key]; ok {
		return m.snapshotLocked(j), OutcomeCoalesced, nil
	}
	if m.cfg.Cache != nil {
		if body, ok := m.cfg.Cache.Get(key); ok {
			j := m.newJobLocked(kind, key)
			now := time.Now()
			j.cached = true
			j.tenant = tenant
			j.state = StateDone
			j.started, j.finished = now, now
			j.result = body
			m.publishStateLocked(j)
			m.closeEventsLocked(j)
			m.log.Debug("job served from cache", "job", j.id, "kind", string(kind))
			return m.snapshotLocked(j), OutcomeCached, nil
		}
	}
	if m.cfg.TenantQuota > 0 && m.tenants[tenant] >= m.cfg.TenantQuota {
		return Snapshot{}, OutcomeQueued, fmt.Errorf("%w (tenant %q, quota %d)", ErrQuotaExceeded, tenant, m.cfg.TenantQuota)
	}
	if m.queued >= m.cfg.QueueDepth {
		return Snapshot{}, OutcomeQueued, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	j := m.newJobLocked(kind, key)
	j.run = run
	j.params = params
	j.tenant = tenant
	j.state = StateQueued
	j.ctx, j.cancelFn = context.WithCancel(m.ctx)
	if m.cfg.TenantQuota > 0 {
		m.tenants[tenant]++
	}
	if m.cfg.TraceMaxSpans > 0 {
		// The job's trace is born at acceptance: the root span covers the
		// whole lifecycle and queue.wait measures time-to-worker.
		j.tr = obs.NewTracer(obs.TracerConfig{ID: j.id, MaxSpans: m.cfg.TraceMaxSpans})
		j.rootSpan = j.tr.Start("job", nil, obs.String("kind", string(kind)))
		j.queueSpan = j.tr.Start("queue.wait", j.rootSpan)
	}
	m.inflight[key] = j
	if m.cfg.Journal != nil {
		// Best-effort WAL: a failed append degrades durability (counted on
		// the journal), it does not refuse the submission.
		js := j.tr.Start("journal.append", j.rootSpan, obs.String("op", string(OpSubmit)))
		if err := m.cfg.Journal.AppendSubmit(kind, key, params, tenant); err != nil {
			m.log.Warn("journal append failed; durability degraded",
				"job", j.id, "op", string(OpSubmit), "err", err)
		}
		js.End()
	}
	m.publishStateLocked(j)
	m.enqueueLocked(j)
	m.log.Info("job queued", "job", j.id, "kind", string(kind), "tenant", tenant)
	return m.snapshotLocked(j), OutcomeQueued, nil
}

// newJobLocked allocates a record; callers hold m.mu.
func (m *Manager) newJobLocked(kind Kind, key rescache.Key) *job {
	m.seq++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.seq),
		kind:    kind,
		key:     key,
		created: time.Now(),
	}
	m.byID[j.id] = j
	m.order = append(m.order, j)
	m.evictRecordsLocked()
	return j
}

// evictRecordsLocked drops the oldest finished records above MaxRecords.
func (m *Manager) evictRecordsLocked() {
	excess := len(m.byID) - m.cfg.MaxRecords
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if excess > 0 && (j.state == StateDone || j.state == StateFailed) {
			delete(m.byID, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// execute runs one job on a pool worker.
func (m *Manager) execute(j *job) {
	m.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	run := j.run
	m.publishStateLocked(j)
	m.mu.Unlock()
	j.queueSpan.End() // queued → picked up by a worker

	ctx := j.ctx
	if ctx == nil {
		ctx = m.ctx
	}
	cancel := context.CancelFunc(func() {})
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
	}
	// The job context carries the job identity for log stamping and — when
	// tracing — the executor span, so the engine's mc.run span (and its
	// shard/merge/checkpoint children) nest under it.
	ctx = obs.WithJobID(ctx, j.id)
	execSpan := j.tr.Start("executor", j.rootSpan, obs.String("kind", string(j.kind)))
	ctx = obs.ContextWithSpan(ctx, j.tr, execSpan)
	m.log.InfoContext(ctx, "job started", "kind", string(j.kind))
	progress := func(completed, requested int) {
		j.progressDone.Store(int64(completed))
		j.progressTotal.Store(int64(requested))
	}
	body, st, err := runSafely(run, ctx, progress, func(recovered any) {
		if m.cfg.Hooks.JobPanicked != nil {
			m.cfg.Hooks.JobPanicked(j.id, recovered)
		}
	})
	cancel()
	if err != nil {
		execSpan.SetAttr(obs.String("error_class", simerr.Class(err)))
	} else {
		execSpan.SetAttr(obs.String("stop", st.StopReason))
	}
	execSpan.End()

	// Resolve the WAL entry before finalizing, so the append lands inside
	// the job's trace: done and failed retire the submission; truncated
	// keeps it pending so the next boot resumes it from its checkpoint
	// instead of dropping the committed prefix.
	if m.cfg.Journal != nil {
		op := OpDone
		switch {
		case err != nil:
			op = OpFailed
		case st.Truncated:
			op = OpTruncated
		}
		js := j.tr.Start("journal.append", j.rootSpan, obs.String("op", string(op)))
		if jerr := m.cfg.Journal.Append(op, j.kind, j.key, nil); jerr != nil {
			m.log.WarnContext(ctx, "journal append failed; durability degraded",
				"op", string(op), "err", jerr)
		}
		js.End()
	}
	j.rootSpan.End()

	m.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errClass = simerr.Class(err)
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = body
		stCopy := st
		j.status = &stCopy
		// Cache only complete (or converged) results: a Truncated partial
		// is the one non-deterministic outcome and must never be replayed
		// to a future identical request.
		if m.cfg.Cache != nil && !st.Truncated {
			m.cfg.Cache.Put(j.key, string(j.kind), body)
		}
	}
	if j.tr != nil {
		// Snapshot the finished trace with the terminal state: anyone
		// observing that state can fetch the trace without racing
		// finalization.
		snap := j.tr.Snapshot()
		j.trace = &snap
	}
	if m.cfg.TenantQuota > 0 {
		if m.tenants[j.tenant]--; m.tenants[j.tenant] <= 0 {
			delete(m.tenants, j.tenant)
		}
	}
	if j.cancelFn != nil {
		j.cancelFn() // release the per-job context subtree
	}
	delete(m.inflight, j.key)
	m.publishStateLocked(j)
	m.closeEventsLocked(j)
	snapState, errClass, status := j.state, j.errClass, j.status
	dur := j.finished.Sub(j.started)
	m.mu.Unlock()

	if err != nil {
		m.log.WarnContext(ctx, "job failed",
			"kind", string(j.kind), "class", errClass, "err", err, "dur", dur)
	} else {
		m.log.InfoContext(ctx, "job finished",
			"kind", string(j.kind), "stop", st.StopReason, "dur", dur)
	}
	if m.cfg.Hooks.JobFinished != nil {
		m.cfg.Hooks.JobFinished(j.id, j.kind, snapState, errClass, status, dur)
	}
}

// runSafely invokes the runner with a panic backstop: an escaped panic
// becomes a typed failed job, never a dead worker. onPanic observes the
// recovered value before RecoverInto flattens it into a typed error (defers
// run LIFO, so the observer sees the panic first and re-raises it).
func runSafely(run Runner, ctx context.Context, progress func(int, int), onPanic func(any)) (body []byte, st simrun.Status, err error) {
	defer simerr.RecoverInto(&err, simerr.ErrInvalidConfig)
	defer func() {
		if r := recover(); r != nil {
			if onPanic != nil {
				onPanic(r)
			}
			panic(r)
		}
	}()
	return run(ctx, progress)
}

// Cancel cancels the job's context. A queued job still executes
// (immediately observing its dead context) and, like a running one,
// finalizes as a Truncated partial — the uniform cancellation path.
// Cancelling a finished job is a harmless no-op; unknown IDs return false.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.byID[id]
	m.mu.Unlock()
	if ok && j.cancelFn != nil {
		j.cancelFn()
	}
	return ok
}

// Get returns a snapshot of the job by ID.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// Filter selects jobs for List; zero-valued fields match everything.
type Filter struct {
	Kind   Kind
	State  State
	Tenant string
}

// List returns snapshots of the retained jobs matching f, newest first, at
// most limit (limit <= 0 returns every match). Results are capped to the
// record window (Config.MaxRecords); evicted history is gone.
func (m *Manager) List(f Filter, limit int) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []Snapshot{}
	for i := len(m.order) - 1; i >= 0; i-- {
		j := m.order[i]
		if f.Kind != "" && j.kind != f.Kind {
			continue
		}
		if f.State != "" && j.state != f.State {
			continue
		}
		if f.Tenant != "" && j.tenant != f.Tenant {
			continue
		}
		out = append(out, m.snapshotLocked(j))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Trace returns the job's finished trace. The bool reports whether the job
// exists at all; the returned state disambiguates the empty trace: a job
// that is still queued/running has no trace YET (poll again), while a
// terminal job without one (served from cache, or tracing disabled) never
// will — Trace.Spans stays empty in both cases and the caller decides from
// the state. The qisimd trace endpoint maps this to 404/202/200.
func (m *Manager) Trace(id string) (obs.Trace, State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return obs.Trace{}, "", false
	}
	if j.trace == nil {
		return obs.Trace{}, j.state, true
	}
	return *j.trace, j.state, true
}

func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:        j.id,
		Kind:      j.kind,
		Key:       j.key,
		State:     j.state,
		Cached:    j.cached,
		Tenant:    j.tenant,
		CreatedAt: j.created,
		Progress: Progress{
			Completed: int(j.progressDone.Load()),
			Requested: int(j.progressTotal.Load()),
		},
		ErrorClass: j.errClass,
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	if j.status != nil {
		st := *j.status
		s.Status = &st
		// Final status supersedes the live progress cells.
		s.Progress = Progress{Completed: st.Completed, Requested: st.Requested}
	}
	if j.state == StateDone {
		s.Result = json.RawMessage(j.result)
	}
	return s
}

// QueueDepth returns the queued-but-not-running backlog across all tenants.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued
}

// InFlight returns the number of queued-or-running jobs.
func (m *Manager) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops the manager gracefully: new submissions are refused
// (ErrDraining), every in-flight job context is cancelled — the running
// simulations return through the existing partial-result path, flagged
// Truncated — and the call blocks until the pool finishes committing those
// partials (or ctx fires, returning ErrInterrupted). Idempotent.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	m.mu.Unlock()
	if first {
		m.cancel() // in-flight jobs see cancellation → Truncated partials
		m.mu.Lock()
		m.cond.Broadcast() // wake idle workers so they can exit
		m.mu.Unlock()
	}
	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return simerr.Interruptedf("jobs: drain timed out: %v", ctx.Err())
	}
}
