package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is an always-on bounded ring of structured events — the
// black box an operator dumps after an incident the WAL alone can't
// explain. Producers (lease transitions, retries, evictions, quarantines,
// chaos injections, journal appends) call Record from hot paths, so the
// append path is lock-free-ish: a single atomic sequence claim picks the
// slot, and only writers landing on the *same* slot (a full ring-lap apart)
// ever contend on its mutex. Old events are overwritten silently; Snapshot
// reports how many were lost.
//
// A nil *FlightRecorder is valid and records nothing, mirroring the
// nil-safety contract of Span.
type FlightRecorder struct {
	clock func() time.Time
	slots []flightSlot
	seq   atomic.Uint64
}

type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
}

// FlightEvent is one entry in the recorder.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"time_ns"` // wall clock, unix nanoseconds
	Kind   string `json:"kind"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// FlightDump is a point-in-time copy of the ring, oldest event first.
type FlightDump struct {
	Recorded uint64        `json:"recorded"` // events ever recorded
	Dropped  uint64        `json:"dropped"`  // overwritten by ring wrap
	Events   []FlightEvent `json:"events"`
}

// DefaultFlightEvents is the ring capacity used when none is configured.
const DefaultFlightEvents = 4096

// NewFlightRecorder returns a recorder holding the most recent capacity
// events (DefaultFlightEvents when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{clock: time.Now, slots: make([]flightSlot, capacity)}
}

// Record appends one event, overwriting the oldest when the ring is full.
// Safe for concurrent use; no-op on a nil recorder.
func (f *FlightRecorder) Record(kind string, attrs ...Attr) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1) // 1-based so zero-valued slots read as empty
	slot := &f.slots[seq%uint64(len(f.slots))]
	ev := FlightEvent{Seq: seq, TimeNS: f.clock().UnixNano(), Kind: kind, Attrs: attrs}
	slot.mu.Lock()
	slot.ev = ev
	slot.mu.Unlock()
}

// Snapshot copies the surviving events in sequence order. Safe to call
// while writers run; a write racing the copy keeps whichever version of
// that slot the lock hands out, which is always a complete event. Returns
// an empty dump on a nil recorder.
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{Events: []FlightEvent{}}
	}
	evs := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		f.slots[i].mu.Lock()
		ev := f.slots[i].ev
		f.slots[i].mu.Unlock()
		if ev.Seq != 0 {
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	d := FlightDump{Recorded: f.seq.Load(), Events: evs}
	d.Dropped = d.Recorded - uint64(len(evs))
	return d
}

// WriteText renders the dump as one line per event — the SIGQUIT / tree
// format:
//
//	flight: 12 events (0 dropped, 12 recorded)
//	  #3 2026-02-11T09:00:01.123Z lease.grant worker=w1 key=mc.1 range=[0,4)
func (d FlightDump) WriteText(w io.Writer) {
	fmt.Fprintf(w, "flight: %d events (%d dropped, %d recorded)\n",
		len(d.Events), d.Dropped, d.Recorded)
	for _, ev := range d.Events {
		fmt.Fprintf(w, "  #%d %s %s", ev.Seq,
			time.Unix(0, ev.TimeNS).UTC().Format("2006-01-02T15:04:05.000Z"), ev.Kind)
		for _, a := range ev.Attrs {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintln(w)
	}
}
