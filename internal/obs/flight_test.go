package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// SetClock replaces the recorder's wall clock; call it before recording.
func (f *FlightRecorder) SetClock(clock func() time.Time) {
	if f != nil && clock != nil {
		f.clock = clock
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("noop", String("k", "v")) // must not panic
	d := f.Snapshot()
	if d.Recorded != 0 || d.Dropped != 0 || len(d.Events) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", d)
	}
}

func TestFlightRecorderOrderAndWrap(t *testing.T) {
	f := NewFlightRecorder(4)
	f.SetClock(func() time.Time { return time.Unix(100, 0) })
	for i := 0; i < 10; i++ {
		f.Record("ev", Int("i", i))
	}
	d := f.Snapshot()
	if d.Recorded != 10 || d.Dropped != 6 {
		t.Fatalf("recorded=%d dropped=%d, want 10/6", d.Recorded, d.Dropped)
	}
	if len(d.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(d.Events))
	}
	for i, ev := range d.Events {
		wantSeq := uint64(7 + i) // events 7..10 survive a capacity-4 ring
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq=%d, want %d", i, ev.Seq, wantSeq)
		}
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	f := NewFlightRecorder(0)
	if len(f.slots) != DefaultFlightEvents {
		t.Fatalf("capacity %d, want %d", len(f.slots), DefaultFlightEvents)
	}
}

func TestFlightRecorderConcurrentAppend(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Record("concurrent", Int("writer", w), Int("i", i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must be safe too
		defer close(done)
		for i := 0; i < 50; i++ {
			f.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	d := f.Snapshot()
	if d.Recorded != writers*perWriter {
		t.Fatalf("recorded=%d, want %d", d.Recorded, writers*perWriter)
	}
	if len(d.Events) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq <= d.Events[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, d.Events[i-1].Seq, d.Events[i].Seq)
		}
	}
}

func TestFlightDumpWriteText(t *testing.T) {
	f := NewFlightRecorder(8)
	f.SetClock(func() time.Time { return time.Unix(0, 42).UTC() })
	f.Record("lease.grant", String("worker", "w1"), String("key", "mc.1"))
	var b strings.Builder
	f.Snapshot().WriteText(&b)
	out := b.String()
	if !strings.Contains(out, "flight: 1 events (0 dropped, 1 recorded)") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "lease.grant worker=w1 key=mc.1") {
		t.Fatalf("missing event line:\n%s", out)
	}
}
