package jobs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"qisim/internal/rescache"
)

// FuzzJournalLine hammers the journal's record decoder with arbitrary
// lines, both as a whole record and as the JSON inside a record with the
// right CRC (the CRC would otherwise stop nearly every input before the
// JSON checks). The invariants under fuzz:
//
//  1. decodeJournalLine and (*Journal).replay never panic;
//  2. an accepted entry re-encodes through encodeJournalLine and decodes to
//     an equal entry: every field equal, Params up to JSON formatting and
//     At as the same instant;
//  3. replay stops at the first bad record: a journal of a good record,
//     the fuzzed line(s) and another good record replays the good prefix,
//     counts one torn record and never applies the last record.
func FuzzJournalLine(f *testing.F) {
	rec, err := encodeJournalLine(journalEntry{
		Op: OpSubmit, Kind: "surface.mc", Key: key64('a'),
		Params: json.RawMessage(`{"distance":5,"shots":2000,"seed":7}`),
		Tenant: "t1", At: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := strings.TrimSuffix(rec, "\n")
	upper := strings.ToUpper(valid[:8]) + valid[8:]
	if upper == valid {
		f.Fatal("the seed record's CRC has no hex letter to upper-case")
	}
	bitflip := []byte(valid)
	bitflip[len(bitflip)-5] ^= 0x01 // payload flip → CRC mismatch

	// Seed corpus: the valid record and its characteristic corruptions.
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-record
	f.Add(string(bitflip))
	f.Add(upper) // Sscanf's %x accepts upper-case hex
	// The bare JSON, which the target also decodes inside a framed record.
	f.Add(valid[9:])

	f.Fuzz(func(t *testing.T, line string) {
		framed := fmt.Sprintf("%08x %s", crc32.Checksum([]byte(line), journalCRC), line)
		for _, in := range []string{line, framed} {
			if got, ok := decodeJournalLine(in); ok {
				checkJournalRoundTrip(t, got)
			}
			checkReplayStops(t, in)
		}
	})
}

func checkJournalRoundTrip(t *testing.T, got journalEntry) {
	t.Helper()
	enc, err := encodeJournalLine(got)
	if err != nil {
		t.Fatalf("re-encode of an accepted entry failed: %v", err)
	}
	back, ok := decodeJournalLine(strings.TrimSuffix(enc, "\n"))
	if !ok {
		t.Fatalf("re-encoded entry does not decode: %q", enc)
	}
	// json.Marshal compacts a RawMessage (and escapes HTML), so compare
	// Params in that canonical form.
	canon := func(r json.RawMessage) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("canonical params: %v", err)
		}
		return string(b)
	}
	if canon(got.Params) != canon(back.Params) || !got.At.Equal(back.At) {
		t.Fatalf("round trip changed the entry:\n got  %+v\n back %+v", got, back)
	}
	got.Params, got.At, back.Params, back.At = nil, time.Time{}, nil, time.Time{}
	if !reflect.DeepEqual(got, back) {
		t.Fatalf("round trip changed the entry:\n got  %+v\n back %+v", got, back)
	}
}

func checkReplayStops(t *testing.T, lines string) {
	t.Helper()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	first, err := encodeJournalLine(journalEntry{Op: OpSubmit, Kind: "surface.mc", Key: key64('b'), At: at})
	if err != nil {
		t.Fatal(err)
	}
	last, err := encodeJournalLine(journalEntry{Op: OpSubmit, Kind: "surface.mc", Key: key64('c'), At: at})
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{pending: map[rescache.Key]*PendingJob{}}
	j.replay([]byte(first + lines + "\n" + last))

	// The scanner splits at '\n' and drops one trailing '\r' per line.
	split := strings.Split(lines, "\n")
	good := 0
	for _, l := range split {
		if _, ok := decodeJournalLine(strings.TrimSuffix(l, "\r")); !ok {
			break
		}
		good++
	}
	want := JournalStats{Replayed: 1 + good, Torn: 1}
	if good == len(split) {
		want = JournalStats{Replayed: 2 + good}
	}
	_, lastApplied := j.pending[key64('c')]
	if j.stats != want || lastApplied != (want.Torn == 0) {
		t.Fatalf("replay of %q: stats %+v (last record applied %v), want %+v",
			lines, j.stats, lastApplied, want)
	}
}
