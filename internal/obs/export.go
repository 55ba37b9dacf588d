// Trace exporters: Chrome trace_event JSON (chrome://tracing, Perfetto) and
// a compact indented text tree, plus the parser that makes the Chrome form
// round-trippable and the structural validator the tests and the qisimd
// trace endpoint rely on.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// SpanData is one exported span: the immutable form of a Span.
type SpanData struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// DurNS returns the span's duration in nanoseconds.
func (s SpanData) DurNS() int64 { return s.EndNS - s.StartNS }

// Attr returns the value of the named attribute ("" when absent).
func (s SpanData) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is a finished trace: a flat span list (creation order — IDs are
// ascending) plus the trace identity, the wall clock its span times count
// from and the dropped-span count.
type Trace struct {
	ID string `json:"id"`
	// EpochNS is the tracer's wall-clock start in Unix nanoseconds: a
	// span's StartNS and EndNS are offsets from it (0 = unknown).
	EpochNS int64      `json:"epoch_ns,omitempty"`
	Dropped int        `json:"dropped,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// Find returns the first span with the given name (creation order) and
// whether one exists.
func (t Trace) Find(name string) (SpanData, bool) {
	for _, s := range t.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanData{}, false
}

// Count returns how many spans carry the given name.
func (t Trace) Count(name string) int {
	n := 0
	for _, s := range t.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// Check validates the trace's structural invariants: unique span IDs,
// parents that exist (or 0), non-negative durations, and children nested
// within their parent's interval. The qisimd trace endpoint's E2E suite
// runs every served trace through it.
func (t Trace) Check() error {
	byID := make(map[uint64]SpanData, len(t.Spans))
	for _, s := range t.Spans {
		if s.ID == 0 {
			return fmt.Errorf("obs: span %q has zero ID", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("obs: duplicate span ID %d (%q)", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range t.Spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("obs: span %d (%q) ends before it starts (%d < %d)",
				s.ID, s.Name, s.EndNS, s.StartNS)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("obs: span %d (%q) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("obs: span %d (%q) [%d,%d] escapes parent %d (%q) [%d,%d]",
				s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
		}
	}
	return nil
}

// chromeEvent is one trace_event record. We emit "X" (complete) events with
// microsecond ts/dur for the viewers, and carry the exact nanosecond
// interval plus the span identity in args so ParseChrome reconstructs the
// span tree bytes-exactly.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// chromeFile is the trace_event container object form.
type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChrome renders the trace in Chrome trace_event JSON. Concurrent
// spans are laid out on separate tid lanes (greedy flame-stack assignment,
// children preferring their parent's lane) so Perfetto renders a proper
// flame graph instead of interleaved garbage.
func (t Trace) WriteChrome(w io.Writer) error {
	lanes := assignLanes(t.Spans)
	f := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, len(t.Spans)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"trace_id": t.ID},
	}
	if t.EpochNS != 0 {
		f.OtherData["epoch_ns"] = fmt.Sprintf("%d", t.EpochNS)
	}
	if t.Dropped > 0 {
		f.OtherData["dropped_spans"] = fmt.Sprintf("%d", t.Dropped)
	}
	for _, s := range t.Spans {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "qisim",
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS()) / 1e3,
			PID:  1,
			TID:  lanes[s.ID],
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, StartNS: s.StartNS, EndNS: s.EndNS, Attrs: s.Attrs},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteChromeFile snapshots the tracer and writes the Chrome trace_event
// JSON to path. Export failures leave the traced run untouched: callers log
// a warning and keep their exit code (see the CLI contract).
func WriteChromeFile(path string, tr *Tracer) error {
	if tr == nil {
		return fmt.Errorf("obs: no tracer to export")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.Snapshot().WriteChrome(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ParseChrome parses Chrome trace_event JSON produced by WriteChrome back
// into a Trace. The span tree reconstructs exactly: the golden round-trip
// test pins Trace → WriteChrome → ParseChrome → identical Trace.
func ParseChrome(r io.Reader) (Trace, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return Trace{}, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	out := Trace{ID: f.OtherData["trace_id"], Spans: make([]SpanData, 0, len(f.TraceEvents))}
	if e := f.OtherData["epoch_ns"]; e != "" {
		if _, err := fmt.Sscanf(e, "%d", &out.EpochNS); err != nil {
			return Trace{}, fmt.Errorf("obs: parse epoch_ns %q: %w", e, err)
		}
	}
	if d := f.OtherData["dropped_spans"]; d != "" {
		if _, err := fmt.Sscanf(d, "%d", &out.Dropped); err != nil {
			return Trace{}, fmt.Errorf("obs: parse dropped_spans %q: %w", d, err)
		}
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args.ID == 0 {
			return Trace{}, fmt.Errorf("obs: event %q carries no span identity", ev.Name)
		}
		out.Spans = append(out.Spans, SpanData{
			ID:      ev.Args.ID,
			Parent:  ev.Args.Parent,
			Name:    ev.Name,
			StartNS: ev.Args.StartNS,
			EndNS:   ev.Args.EndNS,
			Attrs:   ev.Args.Attrs,
		})
	}
	// Restore creation order (ascending IDs) regardless of event order.
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].ID < out.Spans[j].ID })
	return out, nil
}

// assignLanes maps span IDs to Chrome tid lanes: spans are treated as call
// stacks per lane — a span lands on the first lane whose innermost open
// interval is one of its ancestors and fully contains it (children
// therefore prefer their parent's lane), otherwise a fresh lane opens.
func assignLanes(spans []SpanData) map[uint64]int {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	isAncestor := func(anc, id uint64) bool {
		for id != 0 {
			id = parent[id]
			if id == anc {
				return true
			}
		}
		return false
	}
	order := make([]SpanData, len(spans))
	copy(order, spans)
	sort.Slice(order, func(i, j int) bool {
		if order[i].StartNS != order[j].StartNS {
			return order[i].StartNS < order[j].StartNS
		}
		return order[i].ID < order[j].ID
	})
	lanes := map[uint64]int{}
	type openSpan struct {
		id    uint64
		endNS int64
	}
	var stacks [][]openSpan // per-lane open-interval stacks
	for _, s := range order {
		placed := false
		for li := range stacks {
			// Pop intervals that ended before this span starts.
			st := stacks[li]
			for len(st) > 0 && st[len(st)-1].endNS <= s.StartNS {
				st = st[:len(st)-1]
			}
			stacks[li] = st
			if len(st) == 0 {
				stacks[li] = append(st, openSpan{s.ID, s.EndNS})
				lanes[s.ID] = li
				placed = true
				break
			}
			top := st[len(st)-1]
			if isAncestor(top.id, s.ID) && top.endNS >= s.EndNS {
				stacks[li] = append(st, openSpan{s.ID, s.EndNS})
				lanes[s.ID] = li
				placed = true
				break
			}
		}
		if !placed {
			stacks = append(stacks, []openSpan{{s.ID, s.EndNS}})
			lanes[s.ID] = len(stacks) - 1
		}
	}
	return lanes
}

// TreeString renders the span tree as an indented text outline with
// durations and attributes — the quick-look form of the service's trace
// and flight endpoints and of qisimd's SIGQUIT dump. The header gives the
// wall-clock epoch, and a zero-length span (an event) shows its offset
// from it, "@1.250s", in place of a duration.
func (t Trace) TreeString() string {
	children := map[uint64][]SpanData{}
	byID := map[uint64]bool{}
	for _, s := range t.Spans {
		byID[s.ID] = true
	}
	var roots []SpanData
	for _, s := range t.Spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans", t.ID, len(t.Spans))
	if t.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", t.Dropped)
	}
	b.WriteByte(')')
	if t.EpochNS != 0 {
		fmt.Fprintf(&b, " epoch %s", time.Unix(0, t.EpochNS).UTC().Format(time.RFC3339Nano))
	}
	b.WriteByte('\n')
	var walk func(s SpanData, depth int)
	walk = func(s SpanData, depth int) {
		when := fmtDur(s.DurNS())
		if s.DurNS() == 0 {
			when = "@" + fmtDur(s.StartNS)
		}
		fmt.Fprintf(&b, "%s%s %s", strings.Repeat("  ", depth+1), s.Name, when)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
