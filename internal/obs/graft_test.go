package obs

import (
	"testing"
	"time"
)

// remoteTrace builds a two-level trace on its own tracer (its own epoch and
// ID counter), simulating a worker-side trace shipped over the wire.
func remoteTrace() Trace {
	rt := NewTracer(TracerConfig{ID: "worker-1", Clock: stepClock()})
	root := rt.Start("mc.window", nil, Int("start", 3))
	child := rt.Start("shard", root, Int("shard", 3))
	child.End()
	root.End()
	return rt.Snapshot()
}

func TestGraftRemapsAndReparents(t *testing.T) {
	now := time.Unix(0, 0)
	tr := NewTracer(TracerConfig{ID: "coord", Clock: func() time.Time { return now }})
	job := tr.Start("job", nil)
	now = now.Add(10 * time.Millisecond)
	lease := tr.Start("dist.lease", job)
	now = now.Add(20 * time.Millisecond) // the report arrives 30ms in

	sub := remoteTrace()
	if n := tr.Graft(lease, sub, String("worker", "w1")); n != 2 {
		t.Fatalf("grafted %d spans, want 2", n)
	}
	lease.End()
	job.End()

	sn := tr.Snapshot()
	if len(sn.Spans) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(sn.Spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range sn.Spans {
		byName[sd.Name] = sd
	}
	win, ok := byName["mc.window"]
	if !ok {
		t.Fatal("grafted root missing")
	}
	if win.Parent != byName["dist.lease"].ID {
		t.Fatalf("grafted root parent = %d, want lease id %d", win.Parent, byName["dist.lease"].ID)
	}
	if win.ID == sub.Spans[0].ID && byName["shard"].ID == sub.Spans[1].ID {
		t.Fatal("grafted spans must get fresh local IDs")
	}
	if byName["shard"].Parent != win.ID {
		t.Fatalf("internal edge lost: shard parent = %d, want %d", byName["shard"].Parent, win.ID)
	}
	// Time shift: the grafted root ends at the graft moment, inside the
	// lease, and internal relative timing is preserved.
	if win.EndNS != (30*time.Millisecond).Nanoseconds() || win.StartNS < byName["dist.lease"].StartNS {
		t.Fatalf("grafted root [%d,%d], want it to end at the graft moment 30ms inside the lease from %d",
			win.StartNS, win.EndNS, byName["dist.lease"].StartNS)
	}
	if d := byName["shard"].StartNS - win.StartNS; d != sub.Spans[1].StartNS-sub.Spans[0].StartNS {
		t.Fatalf("relative offset changed: %d", d)
	}
	if err := sn.Check(); err != nil {
		t.Fatal(err)
	}
	// Root picked up the graft attrs; the child did not.
	foundWorker := false
	for _, a := range win.Attrs {
		if a.Key == "worker" {
			foundWorker = true
		}
	}
	if !foundWorker {
		t.Fatal("graft attrs not applied to remote root")
	}
	for _, a := range byName["shard"].Attrs {
		if a.Key == "worker" {
			t.Fatal("graft attrs leaked onto a non-root span")
		}
	}

	// A remote trace longer than the lease has run loses its head: it is
	// clamped to start where the lease starts.
	open := tr.Start("dist.lease", job)
	now = now.Add(5 * time.Millisecond)
	long := Trace{Spans: []SpanData{{ID: 1, Name: "mc.window", StartNS: 0, EndNS: (50 * time.Millisecond).Nanoseconds()}}}
	tr.Graft(open, long)
	open.End()
	got := tr.Snapshot().Spans
	last := got[len(got)-1]
	if last.StartNS != (30*time.Millisecond).Nanoseconds() || last.EndNS != (35*time.Millisecond).Nanoseconds() {
		t.Fatalf("long graft [%d,%d], want clamped to the lease [30ms,35ms]", last.StartNS, last.EndNS)
	}
}

func TestGraftNilParentAndBufferBound(t *testing.T) {
	// Nil parent: grafted roots become top-level spans.
	tr := NewTracer(TracerConfig{Clock: stepClock()})
	if n := tr.Graft(nil, remoteTrace()); n != 2 {
		t.Fatalf("grafted %d, want 2", n)
	}
	sn := tr.Snapshot()
	for _, sd := range sn.Spans {
		if sd.Name == "mc.window" && sd.Parent != 0 {
			t.Fatalf("nil-parent graft root has parent %d", sd.Parent)
		}
	}

	// Buffer bound: overflow counts as dropped, and the remote trace's own
	// dropped count carries over.
	small := NewTracer(TracerConfig{MaxSpans: 1, Clock: stepClock()})
	sub := remoteTrace()
	sub.Dropped = 3
	if n := small.Graft(nil, sub); n != 1 {
		t.Fatalf("bounded graft recorded %d, want 1", n)
	}
	if got := small.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4 (1 overflow + 3 carried)", got)
	}

	// Nil tracer is a safe no-op.
	var nilT *Tracer
	if n := nilT.Graft(nil, remoteTrace()); n != 0 {
		t.Fatalf("nil tracer graft = %d", n)
	}
}
