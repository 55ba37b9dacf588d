package obs

import (
	"sync"
	"time"
)

// DefaultMaxSpans bounds a tracer's span buffer when TracerConfig.MaxSpans
// is zero. Sized so a full 200k-shot Monte-Carlo run (≈400 shards × ~3
// spans each plus the job envelope) fits with headroom, while a runaway
// sweep cannot grow memory without bound.
const DefaultMaxSpans = 4096

// TracerConfig parameterises a Tracer.
type TracerConfig struct {
	// ID is the trace identity stamped on exports and log records (default
	// "trace"). qisimd uses the job ID.
	ID string
	// MaxSpans bounds the span buffer (default DefaultMaxSpans). Spans
	// started past the bound are counted as dropped, never recorded and
	// never blocking; an event past it overwrites the oldest entry if that
	// entry is an event (see Event).
	MaxSpans int
	// Clock is the time source (default time.Now). Tests inject a
	// deterministic stepping clock so exports are byte-stable.
	Clock func() time.Time
}

// Tracer records a bounded buffer of spans for one trace (one CLI run, one
// qisimd job), or of events for a process (qisimd's flight ring, a tracer
// that records only events and so keeps the most recent ones). All methods
// are safe for concurrent use; span mutation goes
// through the tracer lock, so a Snapshot taken after the traced work
// finishes is race-free even under `go test -race`.
//
// Determinism contract: a Tracer consumes no random numbers and span IDs
// come from a plain counter — installing a tracer cannot change any
// Monte-Carlo draw, and the engine's merged results are bit-identical with
// tracing on or off.
type Tracer struct {
	id    string
	max   int
	clock func() time.Time
	epoch time.Time

	mu      sync.Mutex
	spans   []*Span // a ring once events wrap it: spans[head] is the oldest
	head    int
	nextID  uint64
	dropped int
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.ID == "" {
		cfg.ID = "trace"
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Tracer{id: cfg.ID, max: cfg.MaxSpans, clock: cfg.Clock, epoch: cfg.Clock()}
}

// ID returns the trace identity.
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// sinceEpochLocked returns monotonic nanoseconds since the tracer was
// built. Callers hold t.mu.
func (t *Tracer) sinceEpochLocked() int64 { return t.clock().Sub(t.epoch).Nanoseconds() }

// Start begins a span as an explicit child of parent (nil = root) and
// records it on the tracer. Returns nil — counted as dropped — once the
// span buffer is full. Nil receivers return nil, so callers wired to an
// optional tracer need no branches.
func (t *Tracer) Start(name string, parent *Span, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{
		tr:      t,
		id:      t.nextID,
		name:    name,
		startNS: t.sinceEpochLocked(),
		endNS:   -1,
	}
	if parent != nil {
		s.parent = parent.id
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	t.spans = append(t.spans, s)
	return s
}

// Event records a finished, zero-length root span: an instant, such as a
// lease grant or a chaos injection. When the buffer is full, the event
// overwrites the oldest entry in constant time if that entry is an event
// too, and is dropped otherwise, so an event never evicts a span and a
// span never loses its parent; either way one entry counts as dropped. A
// tracer that records only events therefore keeps the most recent ones.
// No-op on a nil tracer.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s *Span
	switch {
	case len(t.spans) < t.max:
		s = &Span{}
		t.spans = append(t.spans, s)
	case t.spans[t.head].event:
		s = t.spans[t.head]
		t.head = (t.head + 1) % len(t.spans)
		t.dropped++
	default:
		t.dropped++
		return
	}
	t.nextID++
	now := t.sinceEpochLocked()
	*s = Span{id: t.nextID, name: name, attrs: append(s.attrs[:0], attrs...),
		startNS: now, endNS: now, event: true}
}

// Dropped returns how many spans were discarded by the buffer bound.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot returns an immutable copy of the trace. Spans still open are
// snapshotted with EndNS set to the current clock reading and an
// `unfinished=true` attribute, so a snapshot is always a well-formed
// interval set.
func (t *Tracer) Snapshot() Trace {
	if t == nil {
		return Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.sinceEpochLocked()
	out := Trace{ID: t.id, EpochNS: t.epoch.UnixNano(), Dropped: t.dropped,
		Spans: make([]SpanData, len(t.spans))}
	for i := range t.spans {
		s := t.spans[(t.head+i)%len(t.spans)]
		sd := SpanData{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartNS: s.startNS,
			EndNS:   s.endNS,
		}
		if len(s.attrs) > 0 {
			sd.Attrs = append(sd.Attrs, s.attrs...)
		}
		if s.endNS < 0 {
			sd.EndNS = now
			sd.Attrs = append(sd.Attrs, Bool("unfinished", true))
		}
		out.Spans[i] = sd
	}
	return out
}

// Graft splices a remote trace under parent: every span of sub is
// re-recorded on t with a freshly allocated local ID, sub's internal
// parent/child edges preserved via an ID remap, root spans re-parented to
// parent (top-level if parent is nil), and all timestamps shifted so sub's
// latest span end lands at the graft moment — remote clocks and the local
// epoch never agree, so only sub's internal relative timing is trusted, and
// the one local fact is that the remote work was done by the time its
// trace arrived. A span the shift would start before parent (before the
// tracer's epoch, without one) is clamped to start there, so the graft
// stays inside parent. attrs are appended to each grafted root span
// (typically the worker identity). Spans past the buffer bound are counted
// as dropped, and sub's own dropped count carries over. Returns the number
// of spans grafted. This is how a coordinator stitches each worker's
// window trace into its unit's span of the job trace served by
// /v1/jobs/{id}/trace.
func (t *Tracer) Graft(parent *Span, sub Trace, attrs ...Attr) int {
	if t == nil || len(sub.Spans) == 0 {
		if t != nil && sub.Dropped > 0 {
			t.mu.Lock()
			t.dropped += sub.Dropped
			t.mu.Unlock()
		}
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += sub.Dropped

	maxEnd := sub.Spans[0].EndNS
	for _, sd := range sub.Spans[1:] {
		maxEnd = max(maxEnd, sd.EndNS)
	}
	shift := t.sinceEpochLocked() - maxEnd
	parentID, floor := uint64(0), int64(0)
	if parent != nil {
		parentID, floor = parent.id, parent.startNS
	}

	remap := make(map[uint64]uint64, len(sub.Spans))
	grafted := 0
	for _, sd := range sub.Spans {
		if len(t.spans) >= t.max {
			t.dropped++
			continue
		}
		t.nextID++
		remap[sd.ID] = t.nextID
		s := &Span{
			tr:      t,
			id:      t.nextID,
			name:    sd.Name,
			startNS: max(sd.StartNS+shift, floor),
			endNS:   max(sd.EndNS+shift, floor),
		}
		if pid, ok := remap[sd.Parent]; ok && sd.Parent != 0 {
			s.parent = pid
		} else {
			// Root of the remote trace (or an orphan whose parent was
			// dropped remotely): hang it off the graft point.
			s.parent = parentID
			if len(attrs) > 0 {
				s.attrs = append(s.attrs, attrs...)
			}
		}
		if len(sd.Attrs) > 0 {
			s.attrs = append(s.attrs, sd.Attrs...)
		}
		t.spans = append(t.spans, s)
		grafted++
	}
	return grafted
}

// Span is one timed, named, attributed interval in a trace. A Span is owned
// by the goroutine that started it; End and SetAttr synchronise through the
// tracer lock, so snapshots taken concurrently observe consistent state.
// All methods are nil-safe (the disabled-tracing fast path hands out nil
// spans).
type Span struct {
	tr      *Tracer
	id      uint64
	parent  uint64
	name    string
	attrs   []Attr
	startNS int64
	endNS   int64 // -1 while open
	event   bool  // recorded by Event: an event may overwrite it
}

// ID returns the span's trace-local identity (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End closes the span at the tracer's current clock reading. Idempotent;
// no-op on nil spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.endNS < 0 {
		s.endNS = s.tr.sinceEpochLocked()
	}
	s.tr.mu.Unlock()
}

// SetAttr appends attributes to the span (typically results known only at
// the end, like an event count). No-op on nil spans.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}
