package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a deterministic clock stepping 1ms per reading.
func stepClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestStartSpanWithoutTracerIsNilAndSafe(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything", Int("k", 1))
	if s != nil {
		t.Fatalf("expected nil span without tracer, got %v", s)
	}
	if ctx2 != ctx {
		t.Fatalf("expected unchanged context without tracer")
	}
	// All nil-span methods must be no-ops.
	s.End()
	s.SetAttr(String("a", "b"))
	if s.ID() != 0 {
		t.Fatalf("nil span ID = %d, want 0", s.ID())
	}
	var tr *Tracer
	if tr.ID() != "" || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer accessors not zero")
	}
	if got := tr.Start("x", nil); got != nil {
		t.Fatalf("nil tracer Start = %v, want nil", got)
	}
	if sn := tr.Snapshot(); len(sn.Spans) != 0 {
		t.Fatalf("nil tracer snapshot has spans")
	}
}

func TestTracerNestingAndSnapshot(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "t1", Clock: stepClock()})
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "root", String("kind", "test"))
	if root == nil {
		t.Fatal("root span is nil")
	}
	ctx2, child := StartSpan(ctx1, "child")
	_, grand := StartSpan(ctx2, "grand")
	grand.End()
	child.SetAttr(Int("n", 42))
	child.End()
	root.End()

	snap := tr.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if snap.ID != "t1" || len(snap.Spans) != 3 {
		t.Fatalf("snapshot = %q %d spans, want t1 / 3", snap.ID, len(snap.Spans))
	}
	r, _ := snap.Find("root")
	c, _ := snap.Find("child")
	g, _ := snap.Find("grand")
	if r.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent = %d, want %d", c.Parent, r.ID)
	}
	if g.Parent != c.ID {
		t.Fatalf("grand parent = %d, want %d", g.Parent, c.ID)
	}
	if c.Attr("n") != "42" {
		t.Fatalf("child attr n = %q, want 42", c.Attr("n"))
	}
	if r.Attr("kind") != "test" {
		t.Fatalf("root attr kind = %q", r.Attr("kind"))
	}
	// Stepping clock: every reading is strictly later, so durations > 0
	// and children nest inside parents (Check already verified nesting).
	for _, s := range snap.Spans {
		if s.DurNS() <= 0 {
			t.Fatalf("span %q duration %d, want > 0", s.Name, s.DurNS())
		}
	}
}

func TestTracerBoundedBufferCountsDropped(t *testing.T) {
	tr := NewTracer(TracerConfig{ID: "b", MaxSpans: 3, Clock: stepClock()})
	ctx := WithTracer(context.Background(), tr)
	var spans []*Span
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, "s")
		spans = append(spans, s)
	}
	for _, s := range spans {
		s.End() // nil-safe for the dropped ones
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped())
	}
	snap := tr.Snapshot()
	if snap.Dropped != 7 || len(snap.Spans) != 3 {
		t.Fatalf("snapshot dropped=%d spans=%d", snap.Dropped, len(snap.Spans))
	}
	if err := snap.Check(); err != nil {
		t.Fatalf("bounded snapshot invalid: %v", err)
	}
}

func TestSnapshotMarksUnfinishedSpans(t *testing.T) {
	tr := NewTracer(TracerConfig{Clock: stepClock()})
	ctx := WithTracer(context.Background(), tr)
	_, open := StartSpan(ctx, "open")
	_ = open // never ended
	snap := tr.Snapshot()
	s, ok := snap.Find("open")
	if !ok {
		t.Fatal("open span missing from snapshot")
	}
	if s.Attr("unfinished") != "true" {
		t.Fatalf("unfinished attr = %q, want true", s.Attr("unfinished"))
	}
	if s.EndNS < s.StartNS {
		t.Fatalf("unfinished span has invalid interval [%d,%d]", s.StartNS, s.EndNS)
	}
	if err := snap.Check(); err != nil {
		t.Fatalf("snapshot with open span invalid: %v", err)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{Clock: stepClock()})
	s := tr.Start("once", nil)
	s.End()
	first := tr.Snapshot().Spans[0].EndNS
	s.End()
	second := tr.Snapshot().Spans[0].EndNS
	if first != second {
		t.Fatalf("End not idempotent: %d then %d", first, second)
	}
}

func TestConcurrentSpansAreRaceFree(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 64})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := StartSpan(ctx, "worker", Int("i", i))
			_, in := StartSpan(c, "inner")
			in.SetAttr(Bool("ok", true))
			in.End()
			s.End()
		}(i)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatalf("concurrent snapshot invalid: %v", err)
	}
	if got := snap.Count("worker"); got != 8 {
		t.Fatalf("worker spans = %d, want 8", got)
	}
	if got := snap.Count("inner"); got != 8 {
		t.Fatalf("inner spans = %d, want 8", got)
	}
}

// buildGoldenTrace makes a small deterministic trace with concurrency,
// attributes and a dropped count — the round-trip fixture.
func buildGoldenTrace() Trace {
	tr := NewTracer(TracerConfig{ID: "golden", Clock: stepClock()})
	ctx := WithTracer(context.Background(), tr)
	ctx, job := StartSpan(ctx, "job", String("kind", "surface.mc"))
	c1, sh0 := StartSpan(ctx, "shard", Int("shard", 0))
	_, dec := StartSpan(c1, "decode")
	dec.End()
	sh0.SetAttr(Int("shots", 512))
	sh0.End()
	_, sh1 := StartSpan(ctx, "shard", Int("shard", 1))
	sh1.End()
	_, mg := StartSpan(ctx, "merge")
	mg.SetAttr(String("p", "0.03125"))
	mg.End()
	job.End()
	t := tr.Snapshot()
	t.Dropped = 2
	return t
}

func TestChromeRoundTripGolden(t *testing.T) {
	want := buildGoldenTrace()
	var buf bytes.Buffer
	if err := want.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// The emitted bytes must be valid JSON in trace_event container form.
	var generic map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("emitted chrome trace is not valid JSON: %v", err)
	}
	if _, ok := generic["traceEvents"].([]any); !ok {
		t.Fatalf("chrome trace missing traceEvents array")
	}
	got, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseChrome: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	// Second pass must be byte-stable.
	var buf2 bytes.Buffer
	if err := got.WriteChrome(&buf2); err != nil {
		t.Fatalf("WriteChrome(2): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("chrome export not byte-stable")
	}
}

// TestWriteChromeFileErrors: an export that cannot be written is an
// ordinary error from WriteChromeFile, never a panic.
func TestWriteChromeFileErrors(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{ID: "export"})
	if err := WriteChromeFile(filepath.Join(blocker, "trace.json"), tr); err == nil {
		t.Error("export under a regular file succeeded")
	}
	if err := WriteChromeFile(filepath.Join(t.TempDir(), "trace.json"), nil); err == nil {
		t.Error("export of a nil tracer succeeded")
	}
}

func TestParseChromeRejectsForeignEvents(t *testing.T) {
	in := `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"args":{}}]}`
	if _, err := ParseChrome(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for event without span identity")
	}
	if _, err := ParseChrome(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

func TestTraceCheckRejectsBadTrees(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
	}{
		{"zero-id", Trace{Spans: []SpanData{{ID: 0, Name: "a", StartNS: 0, EndNS: 1}}}},
		{"dup-id", Trace{Spans: []SpanData{
			{ID: 1, Name: "a", StartNS: 0, EndNS: 2},
			{ID: 1, Name: "b", StartNS: 0, EndNS: 1},
		}}},
		{"unknown-parent", Trace{Spans: []SpanData{{ID: 1, Parent: 99, Name: "a", StartNS: 0, EndNS: 1}}}},
		{"negative-dur", Trace{Spans: []SpanData{{ID: 1, Name: "a", StartNS: 5, EndNS: 1}}}},
		{"escapes-parent", Trace{Spans: []SpanData{
			{ID: 1, Name: "p", StartNS: 0, EndNS: 10},
			{ID: 2, Parent: 1, Name: "c", StartNS: 5, EndNS: 15},
		}}},
	}
	for _, c := range cases {
		if err := c.tr.Check(); err == nil {
			t.Errorf("%s: Check accepted invalid trace", c.name)
		}
	}
}

func TestTreeString(t *testing.T) {
	got := buildGoldenTrace().TreeString()
	for _, want := range []string{
		"trace golden (5 spans, 2 dropped)",
		"job", "kind=surface.mc",
		"shard", "decode", "merge", "shots=512",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("TreeString missing %q:\n%s", want, got)
		}
	}
	// Nesting: decode is indented deeper than shard, which is deeper than job.
	lines := strings.Split(got, "\n")
	indent := func(name string) int {
		for _, l := range lines {
			trimmed := strings.TrimLeft(l, " ")
			if strings.HasPrefix(trimmed, name+" ") {
				return len(l) - len(trimmed)
			}
		}
		t.Fatalf("line for %q not found in:\n%s", name, got)
		return -1
	}
	if !(indent("job") < indent("shard") && indent("shard") < indent("decode")) {
		t.Fatalf("tree indentation wrong:\n%s", got)
	}
}

func TestAssignLanesSeparatesConcurrentSiblings(t *testing.T) {
	// Two siblings overlapping in time must land on different lanes; the
	// child nested in sibling A shares A's lane.
	spans := []SpanData{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 70}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.child", StartNS: 15, EndNS: 50},
	}
	lanes := assignLanes(spans)
	if lanes[2] == lanes[3] {
		t.Fatalf("overlapping siblings share lane %d", lanes[2])
	}
	if lanes[4] != lanes[2] {
		t.Fatalf("child lane %d != parent lane %d", lanes[4], lanes[2])
	}
	if lanes[2] != lanes[1] {
		t.Fatalf("first child should stack on root's lane")
	}
}

func TestLoggerStampsContextIdentity(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	tr := NewTracer(TracerConfig{ID: "trace-7", Clock: stepClock()})
	ctx := WithJobID(WithTracer(context.Background(), tr), "job-42")
	ctx, s := StartSpan(ctx, "work")
	lg.InfoContext(ctx, "hello", "k", "v")
	s.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log record not JSON: %v\n%s", err, buf.String())
	}
	if rec["job"] != "job-42" {
		t.Fatalf("job = %v, want job-42", rec["job"])
	}
	if rec["trace"] != "trace-7" {
		t.Fatalf("trace = %v, want trace-7", rec["trace"])
	}
	if rec["span"] != float64(s.ID()) {
		t.Fatalf("span = %v, want %d", rec["span"], s.ID())
	}
	if rec["k"] != "v" {
		t.Fatalf("user attr lost: %v", rec)
	}
}

func TestLoggerPlainContextHasNoStamps(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	lg.InfoContext(context.Background(), "dropped below level")
	if buf.Len() != 0 {
		t.Fatalf("info record passed warn level: %s", buf.String())
	}
	lg.WarnContext(context.Background(), "plain")
	out := buf.String()
	for _, forbidden := range []string{"job=", "trace=", "span="} {
		if strings.Contains(out, forbidden) {
			t.Fatalf("plain record carries %q: %s", forbidden, out)
		}
	}
}

func TestNewLoggerRejectsBadFlags(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "loud", "text"); err == nil {
		t.Fatal("expected error for bad level")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Fatal("expected error for bad format")
	}
}

func TestDiscardLoggerDropsEverything(t *testing.T) {
	lg := Discard()
	lg.Error("nothing happens")
	if OrDiscard(nil) == nil {
		t.Fatal("OrDiscard(nil) returned nil")
	}
	real := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	if OrDiscard(real) != real {
		t.Fatal("OrDiscard replaced a real logger")
	}
}

func TestPprofMuxServesIndex(t *testing.T) {
	mux := PprofMux()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		h, pattern := mux.Handler(req)
		if pattern == "" || h == nil {
			t.Fatalf("no handler registered for %s", path)
		}
	}
	// The index must actually render.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "profile") {
		t.Fatalf("pprof index does not list profiles")
	}
}
