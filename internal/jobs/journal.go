// The write-ahead job journal: a CRC-guarded JSONL file that records every
// accepted submission and its terminal outcome, so a daemon crash or restart
// can never silently lose queued or running work.
//
// Record grammar (one per line):
//
//	<crc32c-hex8> <json entry>\n
//
// where the CRC covers exactly the JSON bytes. Ops:
//
//	submit     the job was accepted into the queue (params retained so the
//	           request can be rebuilt verbatim after a restart)
//	done       the job finished complete (or converged) — resolved
//	failed     the job failed with a typed error — resolved (a restart must
//	           not blindly retry a request that is deterministically broken)
//	truncated  the job finished with a Truncated partial (drain/deadline);
//	           it stays PENDING so the next boot resumes it from its
//	           checkpoint instead of dropping the committed prefix
//
// Replay walks the file in order and folds ops per key: the pending set is
// "every submitted key without a resolving done/failed". A record with any
// other op, such as the "lease" and "lease-done" records that journals of
// earlier versions hold, replays as an ignored entry, and Compact drops
// it. A torn tail — the crash happened mid-append — is detected by the
// per-line CRC and discarded from the first bad line on (everything after
// an undecodable record is untrusted), counted in Stats.Torn. Journal
// write failures degrade durability, never correctness: appends report
// the error to the caller, which records it and keeps serving.
package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qisim/internal/rescache"
	"qisim/internal/simerr"
)

// Journal ops.
const (
	OpSubmit    = "submit"
	OpDone      = "done"
	OpFailed    = "failed"
	OpTruncated = "truncated"
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalEntry is one JSONL record.
type journalEntry struct {
	Op     string          `json:"op"`
	Kind   Kind            `json:"kind"`
	Key    rescache.Key    `json:"key"`
	Params json.RawMessage `json:"params,omitempty"`
	// Tenant and Parent record the submission's scheduling attribution and
	// parent linkage (OpSubmit only). Parent holds the parent job's KEY —
	// job IDs are not stable across restarts — so recovery can tell a
	// sweep's child from a top-level job and let the resubmitted parent
	// re-adopt it instead of double-running the fan-out.
	Tenant string    `json:"tenant,omitempty"`
	Parent string    `json:"parent,omitempty"`
	At     time.Time `json:"at"`
}

// PendingJob is one unresolved submission recovered from the journal.
type PendingJob struct {
	Kind   Kind
	Key    rescache.Key
	Params json.RawMessage
	// Tenant is the submission's scheduling attribution ("" = anonymous).
	Tenant string
	// Parent is the parent job's key ("" for top-level jobs). A pending
	// child whose parent is also pending is re-adopted by the resubmitted
	// parent rather than resubmitted on its own.
	Parent string
	// Truncated records that a previous life already ran this job partway
	// (drain/deadline) — a checkpoint likely exists to resume from.
	Truncated bool
	At        time.Time
}

// JournalStats are the journal's cumulative observability counters.
type JournalStats struct {
	// Replayed counts valid entries folded at open time.
	Replayed int
	// Torn counts discarded undecodable tail records (crash mid-append).
	Torn int
	// Appends counts successful record writes this life.
	Appends int
	// AppendErrors counts failed record writes (durability degraded).
	AppendErrors int
	// Compactions counts atomic rewrites.
	Compactions int
}

// Journal is the append-only WAL. Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	pending  map[rescache.Key]*PendingJob
	order    []rescache.Key // submission order (deterministic recovery)
	stats    JournalStats
	onAppend func(op, key string) // observability hook; see Observe
}

// Observe registers a hook called with (op, key) after every successful
// record write — the seam the service layer uses to land journal appends in
// the flight recorder. The hook runs under the journal lock: it must be
// cheap and must not call back into the journal. Set before concurrent use.
func (j *Journal) Observe(fn func(op, key string)) {
	j.mu.Lock()
	j.onAppend = fn
	j.mu.Unlock()
}

// OpenJournal opens (creating if needed) the journal at path and replays its
// records into the pending set. A torn tail is tolerated and counted; any
// other read failure is a typed error — a daemon must not boot on a journal
// it cannot interpret.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, simerr.Invalidf("journal: create dir: %v", err)
	}
	j := &Journal{path: path, pending: map[rescache.Key]*PendingJob{}}
	if body, err := os.ReadFile(path); err == nil {
		j.replay(body)
	} else if !os.IsNotExist(err) {
		return nil, simerr.Invalidf("journal: read %s: %v", path, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, simerr.Invalidf("journal: open %s: %v", path, err)
	}
	j.f = f
	return j, nil
}

// replay folds the journal body into the pending set, stopping at the first
// undecodable record (a torn tail: everything after it is untrusted).
func (j *Journal) replay(body []byte) {
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		e, ok := decodeJournalLine(sc.Text())
		if !ok {
			j.stats.Torn++
			return
		}
		j.stats.Replayed++
		j.applyLocked(e)
	}
	if sc.Err() != nil {
		j.stats.Torn++
	}
}

// decodeJournalLine verifies one "<crc8hex> <json>" record.
func decodeJournalLine(line string) (journalEntry, bool) {
	var e journalEntry
	if len(line) < 10 || line[8] != ' ' {
		return e, false
	}
	var want uint32
	if _, err := fmt.Sscanf(line[:8], "%08x", &want); err != nil {
		return e, false
	}
	payload := []byte(line[9:])
	if crc32.Checksum(payload, journalCRC) != want {
		return e, false
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, false
	}
	if e.Op == "" || e.Kind == "" || e.Key == "" {
		return e, false
	}
	return e, true
}

// encodeJournalLine renders one entry as a "<crc8hex> <json>\n" record.
func encodeJournalLine(e journalEntry) (string, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x %s\n", crc32.Checksum(payload, journalCRC), payload), nil
}

// applyLocked folds one entry into the pending set.
func (j *Journal) applyLocked(e journalEntry) {
	switch e.Op {
	case OpSubmit:
		if _, ok := j.pending[e.Key]; !ok {
			j.order = append(j.order, e.Key)
		}
		j.pending[e.Key] = &PendingJob{Kind: e.Kind, Key: e.Key, Params: e.Params, Tenant: e.Tenant, Parent: e.Parent, At: e.At}
	case OpDone, OpFailed:
		delete(j.pending, e.Key)
	case OpTruncated:
		if p, ok := j.pending[e.Key]; ok {
			p.Truncated = true
		}
	}
}

// Append durably records one op (write + fsync). The in-memory pending set
// is updated even when the disk write fails, so Pending/Compact stay
// coherent with what the manager actually did.
func (j *Journal) Append(op string, kind Kind, key rescache.Key, params json.RawMessage) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := journalEntry{Op: op, Kind: kind, Key: key, Params: params, At: time.Now().UTC()}
	j.applyLocked(e)
	return j.writeLocked(e)
}

// AppendSubmit durably records an accepted submission together with its
// tenant attribution and parent linkage (parent is the parent job's key,
// "" for top-level jobs). Same durability contract as Append.
func (j *Journal) AppendSubmit(kind Kind, key rescache.Key, params json.RawMessage, tenant, parent string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := journalEntry{Op: OpSubmit, Kind: kind, Key: key, Params: params, Tenant: tenant, Parent: parent, At: time.Now().UTC()}
	j.applyLocked(e)
	return j.writeLocked(e)
}

// writeLocked appends one already-applied entry to the file (write+fsync).
func (j *Journal) writeLocked(e journalEntry) error {
	line, err := encodeJournalLine(e)
	if err != nil {
		j.stats.AppendErrors++
		return simerr.Invalidf("journal: marshal %s/%s: %v", e.Op, e.Key, err)
	}
	if j.f == nil {
		j.stats.AppendErrors++
		return simerr.Invalidf("journal: append after close")
	}
	if _, err := j.f.WriteString(line); err != nil {
		j.stats.AppendErrors++
		return simerr.Invalidf("journal: append: %v", err)
	}
	if err := j.f.Sync(); err != nil {
		j.stats.AppendErrors++
		return simerr.Invalidf("journal: sync: %v", err)
	}
	j.stats.Appends++
	if j.onAppend != nil {
		j.onAppend(e.Op, string(e.Key))
	}
	return nil
}

// Pending returns the unresolved submissions in original submission order.
func (j *Journal) Pending() []PendingJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]PendingJob, 0, len(j.pending))
	for _, k := range j.order {
		if p, ok := j.pending[k]; ok {
			out = append(out, *p)
		}
	}
	return out
}

// Compact atomically rewrites the journal to hold only the pending set
// (submit records, plus a truncated marker for partially-run jobs), bounding
// file growth across restarts. The rewrite goes through a temp file + rename
// with the same torn-write guarantees as checkpoint snapshots.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp-*")
	if err != nil {
		return simerr.Invalidf("journal: compact temp: %v", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	write := func(e journalEntry) error {
		line, err := encodeJournalLine(e)
		if err != nil {
			return err
		}
		_, err = tmp.WriteString(line)
		return err
	}
	for _, k := range j.order {
		p, ok := j.pending[k]
		if !ok {
			continue
		}
		if err := write(journalEntry{Op: OpSubmit, Kind: p.Kind, Key: p.Key, Params: p.Params, Tenant: p.Tenant, Parent: p.Parent, At: p.At}); err != nil {
			tmp.Close()
			return simerr.Invalidf("journal: compact write: %v", err)
		}
		if p.Truncated {
			if err := write(journalEntry{Op: OpTruncated, Kind: p.Kind, Key: p.Key, At: p.At}); err != nil {
				tmp.Close()
				return simerr.Invalidf("journal: compact write: %v", err)
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return simerr.Invalidf("journal: compact sync: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return simerr.Invalidf("journal: compact close: %v", err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		return simerr.Invalidf("journal: compact rename: %v", err)
	}
	// Reopen the append handle on the new inode; drop resolved keys from the
	// order index while we are at it.
	old := j.f
	f, err := os.OpenFile(j.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return simerr.Invalidf("journal: compact reopen: %v", err)
	}
	j.f = f
	if old != nil {
		old.Close()
	}
	kept := j.order[:0]
	for _, k := range j.order {
		if _, ok := j.pending[k]; ok {
			kept = append(kept, k)
		}
	}
	j.order = kept
	j.stats.Compactions++
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close releases the append handle (pending state stays readable).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
