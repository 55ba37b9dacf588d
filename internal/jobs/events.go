// Per-job event logs: every job keeps a bounded, sequence-numbered log of
// lifecycle transitions plus caller-published custom events (the DSE layer
// publishes partial Pareto frontiers here), and Subscribe attaches a live
// channel — the feed behind qisimd's GET /v1/jobs/{id}/events SSE endpoint.
//
// The log is sealed at finalization: the terminal state event is always the
// last entry, after which every subscriber channel closes. Subscribers that
// fall more than the channel buffer behind lose intermediate events (the
// send never blocks the manager), but the retained log plus the close are
// enough to reconstruct where the job ended up.
package jobs

import (
	"encoding/json"
	"fmt"
	"time"
)

// maxEventsPerJob bounds a job's retained event log and each subscriber's
// channel buffer. Subscribers lagging further than this may miss
// intermediate events; state events and the terminal close are never
// reordered.
const maxEventsPerJob = 256

// EventState is the Type of the lifecycle events the manager itself
// publishes (queued, running, done, failed).
const EventState = "state"

// Event is one entry of a job's event log. Seq increases by one per event
// on the job, starting at 1, so stream consumers can detect gaps from a
// lagging subscription (or use it as an SSE last-event id).
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	At   time.Time       `json:"at"`
	Data json.RawMessage `json:"data,omitempty"`
}

// StateEventData is the payload of EventState events.
type StateEventData struct {
	State      State  `json:"state"`
	ErrorClass string `json:"error_class,omitempty"`
}

// publishStateLocked records a lifecycle transition on the job's log.
func (m *Manager) publishStateLocked(j *job) {
	data, err := json.Marshal(StateEventData{State: j.state, ErrorClass: j.errClass})
	if err != nil {
		return // a struct of two strings cannot fail to marshal
	}
	m.publishLocked(j, EventState, data)
}

// publishLocked appends an event and fans it out to live subscribers
// without ever blocking: a subscriber whose buffer is full misses the
// event (it can detect the gap via Seq).
func (m *Manager) publishLocked(j *job, typ string, data json.RawMessage) {
	if j.eventsClosed {
		return
	}
	j.eventSeq++
	ev := Event{Seq: j.eventSeq, Type: typ, At: time.Now().UTC(), Data: data}
	j.events = append(j.events, ev)
	if over := len(j.events) - maxEventsPerJob; over > 0 {
		j.events = append(j.events[:0], j.events[over:]...)
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeEventsLocked seals the log and closes every subscriber channel.
func (m *Manager) closeEventsLocked(j *job) {
	if j.eventsClosed {
		return
	}
	j.eventsClosed = true
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// Publish appends a custom event to the job's log and streams it to
// subscribers. Publishing to a finished job is a quiet no-op (the log is
// sealed by the terminal state event); unknown IDs error. data marshals to
// the event payload.
func (m *Manager) Publish(id, typ string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("jobs: publish %s on %s: %w", typ, id, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	m.publishLocked(j, typ, raw)
	return nil
}

// Subscribe returns the job's event log so far plus a live channel for
// everything after it. The channel closes when the job finalizes (for an
// already-finished job it is born closed, so a consumer's replay-then-
// stream loop needs no special case). cancel detaches the subscription;
// always call it.
func (m *Manager) Subscribe(id string) (past []Event, ch <-chan Event, cancel func(), ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, found := m.byID[id]
	if !found {
		return nil, nil, nil, false
	}
	past = append([]Event(nil), j.events...)
	if j.eventsClosed {
		closed := make(chan Event)
		close(closed)
		return past, closed, func() {}, true
	}
	c := make(chan Event, maxEventsPerJob)
	if j.subs == nil {
		j.subs = map[int]chan Event{}
	}
	j.subSeq++
	token := j.subSeq
	j.subs[token] = c
	cancel = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if j.eventsClosed {
			return // channel already closed at finalization
		}
		if _, live := j.subs[token]; live {
			delete(j.subs, token)
			close(c)
		}
	}
	return past, c, cancel, true
}

// Subscribers reports the job's live event-subscription count (0 for an
// unknown or finished job). The jobs and service tests use it to prove
// that disconnected SSE consumers are reaped instead of leaking
// subscriptions until the job finalizes.
func (m *Manager) Subscribers(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, found := m.byID[id]
	if !found {
		return 0
	}
	return len(j.subs)
}
