package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// qisimd's flight recorder is a tracer that records only events
// (Tracer.Event): these tests pin its ring behaviour and its dump.

func TestFlightRecorderNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Event("noop", String("k", "v")) // must not panic
	if d := tr.Snapshot(); d.Dropped != 0 || len(d.Spans) != 0 {
		t.Fatalf("nil tracer snapshot not empty: %+v", d)
	}
}

func TestFlightRecorderOrderAndWrap(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "flight", MaxSpans: 4, Clock: stepClock()})
	for i := 0; i < 10; i++ {
		tr.Event("ev", Int("i", i))
	}
	d := tr.Snapshot()
	if d.Dropped != 6 || len(d.Spans) != 4 {
		t.Fatalf("dropped=%d events=%d, want 6/4", d.Dropped, len(d.Spans))
	}
	for i, ev := range d.Spans {
		// Events 7..10 survive a capacity-4 ring, oldest first.
		if ev.ID != uint64(7+i) || ev.Attr("i") != strconv.Itoa(6+i) {
			t.Fatalf("event %d = id %d i=%s, want id %d i=%d", i, ev.ID, ev.Attr("i"), 7+i, 6+i)
		}
		if ev.Parent != 0 || ev.DurNS() != 0 {
			t.Fatalf("event %d is not a zero-length root span: %+v", i, ev)
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "flight"})
	for i := 0; i <= DefaultMaxSpans; i++ {
		tr.Event("ev")
	}
	if tr.Len() != DefaultMaxSpans || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want %d/1", tr.Len(), tr.Dropped(), DefaultMaxSpans)
	}
}

func TestFlightRecorderConcurrentAppend(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "flight", MaxSpans: 64})
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Event("concurrent", Int("writer", w), Int("i", i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must be safe too
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	d := tr.Snapshot()
	if len(d.Spans) != 64 || d.Dropped != writers*perWriter-64 {
		t.Fatalf("events=%d dropped=%d, want 64/%d", len(d.Spans), d.Dropped, writers*perWriter-64)
	}
	for i := 1; i < len(d.Spans); i++ {
		if d.Spans[i].ID <= d.Spans[i-1].ID {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, d.Spans[i-1].ID, d.Spans[i].ID)
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightDumpTreeString: the text dump dates the ring (its epoch) and
// places each event at its offset from it.
func TestFlightDumpTreeString(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "flight", MaxSpans: 8, Clock: stepClock()})
	tr.Event("lease.grant", String("worker", "w1"), String("key", "mc.1"))
	out := tr.Snapshot().TreeString()
	for _, want := range []string{
		"trace flight (1 spans) epoch 1970-01-01T00:00:00.001Z\n",
		"  lease.grant @1.000ms worker=w1 key=mc.1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestEventNeverEvictsSpan: an event wraps only over events. Sent to a
// tracer whose oldest entry is a span it is dropped, and a span sent to a
// full tracer is dropped whatever the tracer holds.
func TestEventNeverEvictsSpan(t *testing.T) {
	full := NewTracer(TracerConfig{MaxSpans: 2, Clock: stepClock()})
	job := full.Start("job", nil)
	full.Start("shard", job).End()
	full.Event("lease.grant")
	job.End()
	if d := full.Snapshot(); d.Dropped != 1 || d.Count("job") != 1 || d.Count("shard") != 1 || d.Count("lease.grant") != 0 {
		t.Fatalf("event evicted a span: %+v", d)
	}

	// event, span, event: the next event overwrites the oldest event, the
	// one after finds the span oldest and is dropped.
	mixed := NewTracer(TracerConfig{MaxSpans: 3, Clock: stepClock()})
	mixed.Event("e1")
	mixed.Start("span", nil).End()
	mixed.Event("e2")
	mixed.Event("e3")
	mixed.Event("e4")
	if s := mixed.Start("late", nil); s != nil {
		t.Fatal("a span was recorded on a full tracer")
	}
	d := mixed.Snapshot()
	var names []string
	for _, s := range d.Spans {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "span,e2,e3" || d.Dropped != 3 {
		t.Fatalf("ring = %s dropped %d, want span,e2,e3 dropped 3", got, d.Dropped)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightDumpChromeRoundTrip: the Chrome form of a wrapped event ring
// parses back to the same trace, epoch included.
func TestFlightDumpChromeRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "flight", MaxSpans: 3,
		Clock: func() time.Time { return time.Unix(1_700_000_000, 5) }})
	for i := 0; i < 5; i++ {
		tr.Event("worker.claim", Int("start", i))
	}
	want := tr.Snapshot()
	if want.EpochNS != 1_700_000_000_000_000_005 {
		t.Fatalf("epoch = %d", want.EpochNS)
	}
	var buf bytes.Buffer
	if err := want.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip:\nwant %+v\ngot  %+v", want, got)
	}
}
