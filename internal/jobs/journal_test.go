package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qisim/internal/rescache"
	"qisim/internal/simrun"
)

func journalPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "journal.wal")
}

func key64(c byte) rescache.Key {
	return rescache.Key(strings.Repeat(string(c), 64))
}

// TestJournalReplayFoldsOps drives the full op grammar through a close/
// reopen cycle: done and failed resolve, truncated stays pending with the
// marker set, params survive byte-exactly.
func TestJournalReplayFoldsOps(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	params := json.RawMessage(`{"distance":7,"shots":1000}`)
	mustAppend := func(op string, k rescache.Key, p json.RawMessage) {
		t.Helper()
		if err := j.Append(op, KindSurfaceMC, k, p); err != nil {
			t.Fatalf("append %s: %v", op, err)
		}
	}
	mustAppend(OpSubmit, key64('a'), params)
	mustAppend(OpSubmit, key64('b'), nil)
	mustAppend(OpSubmit, key64('c'), nil)
	mustAppend(OpSubmit, key64('d'), nil)
	mustAppend(OpDone, key64('b'), nil)
	mustAppend(OpFailed, key64('c'), nil)
	mustAppend(OpTruncated, key64('d'), nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 7 || st.Torn != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	pend := j2.Pending()
	if len(pend) != 2 {
		t.Fatalf("pending = %d entries (%+v), want 2", len(pend), pend)
	}
	if pend[0].Key != key64('a') || string(pend[0].Params) != string(params) || pend[0].Truncated {
		t.Fatalf("pending[0] wrong: %+v", pend[0])
	}
	if pend[1].Key != key64('d') || !pend[1].Truncated {
		t.Fatalf("pending[1] wrong: %+v", pend[1])
	}
}

// TestJournalTornTail truncates the file at every byte boundary inside the
// last record: replay must keep every intact earlier record, discard the
// torn tail, and count it — never error, never resurrect garbage.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(OpSubmit, KindPauliMC, key64('a'), nil)
	j.Append(OpSubmit, KindPauliMC, key64('b'), nil)
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := strings.IndexByte(string(full), '\n') + 1

	// Cut everywhere inside the second record. (Cutting only the trailing
	// newline leaves a complete record, which replay rightly accepts.)
	for cut := firstLen + 1; cut < len(full)-1; cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		pend := jt.Pending()
		st := jt.Stats()
		jt.Close()
		if len(pend) != 1 || pend[0].Key != key64('a') {
			t.Fatalf("cut %d: pending %+v, want only the first record", cut, pend)
		}
		if st.Replayed != 1 || st.Torn != 1 {
			t.Fatalf("cut %d: stats %+v", cut, st)
		}
	}
}

// TestJournalCorruptMiddleStopsReplay flips a byte mid-file: everything
// from the corrupted record on is untrusted and discarded.
func TestJournalCorruptMiddleStopsReplay(t *testing.T) {
	path := journalPath(t)
	j, _ := OpenJournal(path)
	j.Append(OpSubmit, KindReadoutMC, key64('a'), nil)
	j.Append(OpSubmit, KindReadoutMC, key64('b'), nil)
	j.Append(OpDone, KindReadoutMC, key64('a'), nil)
	j.Close()
	body, _ := os.ReadFile(path)
	firstLen := strings.IndexByte(string(body), '\n') + 1
	body[firstLen+12] ^= 0x20 // corrupt the second record's payload
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 1 || st.Torn != 1 {
		t.Fatalf("stats %+v, want 1 replayed + 1 torn", st)
	}
	// Record 3 (done a) was discarded with the corruption, so 'a' is pending
	// again — conservative: re-running a deterministic job is safe, losing
	// one is not.
	pend := j2.Pending()
	if len(pend) != 1 || pend[0].Key != key64('a') {
		t.Fatalf("pending %+v", pend)
	}
}

// TestJournalCompact bounds growth: after compaction only pending records
// remain, truncated markers survive, and the journal stays appendable.
func TestJournalCompact(t *testing.T) {
	path := journalPath(t)
	j, _ := OpenJournal(path)
	for i := 0; i < 20; i++ {
		k := rescache.Key(strings.Repeat(string(rune('a'+i%16)), 64))
		j.Append(OpSubmit, KindSurfaceMC, k, nil)
		j.Append(OpDone, KindSurfaceMC, k, nil)
	}
	j.Append(OpSubmit, KindSurfaceMC, key64('z'), json.RawMessage(`{"shots":5}`))
	j.Append(OpTruncated, KindSurfaceMC, key64('z'), nil)
	before, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compact did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	// Still appendable on the new inode.
	if err := j.Append(OpSubmit, KindSurfaceMC, key64('y'), nil); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pend := j2.Pending()
	if len(pend) != 2 || pend[0].Key != key64('z') || !pend[0].Truncated || pend[1].Key != key64('y') {
		t.Fatalf("pending after compact+reopen: %+v", pend)
	}
	if string(pend[0].Params) != `{"shots":5}` {
		t.Fatalf("params lost in compaction: %q", pend[0].Params)
	}
	// No stray temp files.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("stray compact temp file: %s", e.Name())
		}
	}
}

// TestManagerJournalsLifecycle checks the manager writes submit+done for a
// completed job, submit+truncated for a drained one, and submit+failed for
// a failure — and that cached/coalesced submissions stay out of the WAL.
func TestManagerJournalsLifecycle(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := rescache.New(8)
	m := NewManager(Config{Workers: 1, Cache: cache, Journal: j})
	m.Start()

	ok := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		return []byte(`{}`), simrun.Status{Completed: 1, Requested: 1, StopReason: simrun.StopCompleted}, nil
	}
	fail := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		return nil, simrun.Status{}, context.DeadlineExceeded
	}
	trunc := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		return []byte(`{}`), simrun.Status{Completed: 1, Requested: 2, Truncated: true, StopReason: simrun.StopCanceled}, nil
	}

	wait := func(k rescache.Key, run Runner, params json.RawMessage) {
		t.Helper()
		snap, _, err := m.SubmitOpts(KindSurfaceMC, k, params, run, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	wait(key64('a'), ok, json.RawMessage(`{"p":1}`))
	wait(key64('b'), fail, nil)
	wait(key64('c'), trunc, nil)
	// Cached replay of 'a': born done, nothing executed, nothing journaled.
	if _, outcome, err := m.SubmitOpts(KindSurfaceMC, key64('a'), nil, ok, SubmitOptions{}); err != nil || outcome != OutcomeCached {
		t.Fatalf("cached resubmit: outcome %v err %v", outcome, err)
	}
	drainManager(t, m)

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 6 {
		t.Fatalf("replayed %d records, want 6 (3 submits + done + failed + truncated)", st.Replayed)
	}
	pend := j2.Pending()
	if len(pend) != 1 || pend[0].Key != key64('c') || !pend[0].Truncated {
		t.Fatalf("pending after lifecycle: %+v", pend)
	}
}

// TestJournalAppendErrorDegrades closes the underlying file handle early:
// appends fail and are counted, but the in-memory pending set stays
// coherent and submissions keep working.
func TestJournalAppendErrorDegrades(t *testing.T) {
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(OpSubmit, KindSurfaceMC, key64('a'), nil); err == nil {
		t.Fatal("append after close succeeded")
	}
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Fatalf("append errors = %d, want 1", st.AppendErrors)
	}
	if pend := j.Pending(); len(pend) != 1 {
		t.Fatalf("in-memory pending lost on failed append: %+v", pend)
	}

	m := NewManager(Config{Workers: 1, Journal: j})
	m.Start()
	snap, _, err := m.SubmitOpts(KindSurfaceMC, key64('b'), nil,
		func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
			return []byte(`{}`), simrun.Status{StopReason: simrun.StopCompleted}, nil
		}, SubmitOptions{})
	if err != nil {
		t.Fatalf("submission must survive a dead journal: %v", err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	drainManager(t, m)
}

// TestJournalReplaysParentLeaseLines: a journal written by an earlier
// version also holds the "lease" and "lease-done" records of its fleet
// coordinator. They replay as ignored entries (counted, never torn), the
// pending jobs come back unchanged, and the boot Compact drops the lines.
func TestJournalReplaysParentLeaseLines(t *testing.T) {
	path := journalPath(t)
	at := "2026-01-02T03:04:05Z"
	params := `{"distance":5,"shots":2000,"seed":7}`
	var body strings.Builder
	for _, payload := range []string{
		`{"op":"submit","kind":"surface.mc","key":"` + string(key64('a')) + `","params":` + params + `,"tenant":"t1","at":"` + at + `"}`,
		`{"op":"submit","kind":"surface.mc","key":"` + string(key64('b')) + `","at":"` + at + `"}`,
		`{"op":"lease","kind":"surface.mc","key":"` + string(key64('a')) + `","end":4,"worker":"w1","expires_ms":12345,"at":"` + at + `"}`,
		`{"op":"lease","kind":"surface.mc","key":"` + string(key64('a')) + `","start":4,"end":8,"worker":"w2","expires_ms":12345,"at":"` + at + `"}`,
		`{"op":"lease-done","kind":"surface.mc","key":"` + string(key64('a')) + `","start":4,"end":8,"at":"` + at + `"}`,
		`{"op":"lease","kind":"surface.mc","key":"` + string(key64('b')) + `","end":2,"worker":"w1","expires_ms":12345,"at":"` + at + `"}`,
		`{"op":"done","kind":"surface.mc","key":"` + string(key64('b')) + `","at":"` + at + `"}`,
		`{"op":"truncated","kind":"surface.mc","key":"` + string(key64('a')) + `","at":"` + at + `"}`,
	} {
		fmt.Fprintf(&body, "%08x %s\n", crc32.Checksum([]byte(payload), journalCRC), payload)
	}
	if err := os.WriteFile(path, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	wantAt, err := time.Parse(time.RFC3339, at)
	if err != nil {
		t.Fatal(err)
	}
	want := []PendingJob{{Kind: KindSurfaceMC, Key: key64('a'), Params: json.RawMessage(params),
		Tenant: "t1", Truncated: true, At: wantAt}}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Replayed != 8 || st.Torn != 0 {
		t.Fatalf("replay stats %+v, want 8 replayed and none torn", st)
	}
	if got := j.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending = %+v, want %+v", got, want)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(compacted), `"op":"lease`) {
		t.Fatalf("compacted journal keeps lease records:\n%s", compacted)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 2 || st.Torn != 0 {
		t.Fatalf("compacted replay stats %+v, want the submit and truncated records", st)
	}
	if got := j2.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after compaction = %+v, want %+v", got, want)
	}
}
