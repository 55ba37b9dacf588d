// Package checkpoint is the durable snapshot layer behind crash-safe
// Monte-Carlo runs: it persists the committed shard prefix of a sharded run
// (internal/simrun) in a versioned, CRC-guarded, atomically-written file, so
// a process killed mid-run can resume bit-identically instead of losing
// hours of shots.
//
// File format (see DESIGN.md "Checkpoint format"):
//
//	offset 0  magic     "QISNAP" + 2-digit format version ("QISNAP01")
//	offset 8  length    uint32 big-endian payload byte count
//	offset 12 crc       uint32 big-endian CRC-32C (Castagnoli) of the payload
//	offset 16 payload   canonical JSON Snapshot
//
// Decode rejects — with typed simerr errors, never a panic or a silent
// replay — every corruption the crash-consistency model can produce: a torn
// header, a payload shorter or longer than declared (partial write, append
// by a stray process), a CRC mismatch (bit rot), an undecodable payload, an
// unknown version, and a snapshot whose fields are internally inconsistent.
//
// Writes are atomic: the snapshot is written to a temp file in the target
// directory, fsynced, and renamed over the destination, so a crash mid-save
// leaves either the previous complete snapshot or a stray temp file — never
// a half-written checkpoint under the real name. Combined with Decode's
// guards, a reader observes only complete, self-consistent snapshots.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"qisim/internal/simerr"
)

// Version is the snapshot payload version. Bump it when Snapshot's layout
// changes incompatibly; Decode rejects unknown versions.
const Version = 1

// magic identifies a QIsim checkpoint file; the trailing two digits are the
// container-format version (header layout), distinct from the payload
// Version carried inside.
const magic = "QISNAP01"

// headerLen is the fixed byte count before the payload.
const headerLen = len(magic) + 4 + 4 // magic + length + crc

// castagnoli is the CRC-32C table (the polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies WHICH run a snapshot belongs to. Every field participates
// in Match: resuming a snapshot against a run with any differing field is a
// typed error, because the shard RNG streams, the shard geometry, or the
// convergence decisions would diverge and the resumed result would silently
// differ from a cold run.
type Meta struct {
	// Kind names the run family (e.g. "surface.mc", mirroring jobs.Kind).
	Kind string `json:"kind"`
	// Key is the normalized request key (rescache-style content address or
	// any caller-chosen canonical identity of the full parameter set).
	Key string `json:"key"`
	// Seed is the top-level RNG seed the shard streams derive from.
	Seed int64 `json:"seed"`
	// ShardSize fixes the shard geometry and therefore the RNG stream
	// layout.
	ShardSize int `json:"shard_size"`
	// Budget is the run's shot budget.
	Budget int `json:"budget"`
	// MinShots / TargetRelStdErr fix the convergence decisions; resuming
	// under different guard settings could stop at a different prefix.
	MinShots        int     `json:"min_shots,omitempty"`
	TargetRelStdErr float64 `json:"target_rel_std_err,omitempty"`
}

// Snapshot is one durable checkpoint: the run identity plus the committed
// contiguous shard prefix and its accumulator.
type Snapshot struct {
	// Version is the payload version (see Version).
	Version int `json:"version"`
	// Meta identifies the run this snapshot belongs to.
	Meta Meta `json:"meta"`
	// Shards is the committed contiguous shard-prefix length.
	Shards int `json:"shards"`
	// Shots is the shot count the prefix covers.
	Shots int `json:"shots"`
	// Events is the committed binomial event count (convergence guard).
	Events int `json:"events"`
	// NoConverge records the tally's "no binomial statistic" latch.
	NoConverge bool `json:"no_converge,omitempty"`
	// Final marks the flush written when the run stopped (as opposed to a
	// mid-run commit checkpoint).
	Final bool `json:"final,omitempty"`
	// State is the serialized accumulator of the committed prefix (the
	// engine's merged R value, marshaled with encoding/json).
	State json.RawMessage `json:"state,omitempty"`
	// SavedAt records when the snapshot was written (metadata only — it
	// does not participate in resume decisions).
	SavedAt time.Time `json:"saved_at"`
}

// Complete reports whether the snapshot covers its full budget — a resumed
// run would not spend a single additional shot.
func (s Snapshot) Complete() bool { return s.Shots >= s.Meta.Budget }

// Validate checks the snapshot's internal consistency (shape only — Match
// checks identity against a concrete run).
func (s Snapshot) Validate() error {
	switch {
	case s.Version != Version:
		return simerr.Invalidf("checkpoint: unsupported snapshot version %d (want %d)", s.Version, Version)
	case s.Meta.Kind == "":
		return simerr.Invalidf("checkpoint: snapshot has no run kind")
	case s.Meta.Key == "":
		return simerr.Invalidf("checkpoint: snapshot has no request key")
	case s.Meta.ShardSize <= 0:
		return simerr.Invalidf("checkpoint: non-positive shard size %d", s.Meta.ShardSize)
	case s.Meta.Budget <= 0:
		return simerr.Invalidf("checkpoint: non-positive budget %d", s.Meta.Budget)
	case s.Shards < 0 || s.Shots < 0 || s.Events < 0:
		return simerr.Invalidf("checkpoint: negative progress (shards %d, shots %d, events %d)",
			s.Shards, s.Shots, s.Events)
	case s.Shots > s.Meta.Budget:
		return simerr.Invalidf("checkpoint: committed shots %d exceed budget %d", s.Shots, s.Meta.Budget)
	case s.Events > s.Shots:
		return simerr.Invalidf("checkpoint: committed events %d exceed shots %d", s.Events, s.Shots)
	case s.Shards > 0 && len(s.State) == 0:
		return simerr.Invalidf("checkpoint: %d committed shards but no accumulator state", s.Shards)
	}
	return nil
}

// Match verifies that the snapshot belongs to the run identified by m. A
// mismatch on any field is a typed configuration error: resuming would
// double-count shards of a different run or change the RNG stream layout.
func (s Snapshot) Match(m Meta) error {
	if s.Meta == m {
		return nil
	}
	return simerr.Invalidf(
		"checkpoint: snapshot does not match this run (snapshot %s key=%.16s… seed=%d shard=%d budget=%d rel-se=%g min-shots=%d; run %s key=%.16s… seed=%d shard=%d budget=%d rel-se=%g min-shots=%d)",
		s.Meta.Kind, s.Meta.Key, s.Meta.Seed, s.Meta.ShardSize, s.Meta.Budget, s.Meta.TargetRelStdErr, s.Meta.MinShots,
		m.Kind, m.Key, m.Seed, m.ShardSize, m.Budget, m.TargetRelStdErr, m.MinShots)
}

// EncodeContainer frames an arbitrary payload in the QISNAP01 container
// (magic + big-endian length + CRC-32C + payload). The snapshot layer
// builds on it, and the distributed layer (internal/dist) reuses it as the
// shard-result wire format so unit uploads get the same torn-write and
// bit-rot detection as on-disk checkpoints.
func EncodeContainer(payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[len(magic):], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[len(magic)+4:], crc32.Checksum(payload, castagnoli))
	copy(buf[headerLen:], payload)
	return buf
}

// DecodeContainer verifies a QISNAP01 container and returns its payload.
// Every failure mode — torn header, truncated or over-long payload, CRC
// mismatch — comes back as a typed ErrInvalidConfig-classed error; a
// corrupted payload is never partially returned.
func DecodeContainer(b []byte) ([]byte, error) {
	if len(b) < headerLen {
		return nil, simerr.Invalidf("checkpoint: torn file: %d bytes is shorter than the %d-byte header",
			len(b), headerLen)
	}
	if string(b[:len(magic)]) != magic {
		return nil, simerr.Invalidf("checkpoint: bad magic %q (not a QIsim checkpoint, or an unsupported container version)",
			string(b[:len(magic)]))
	}
	declared := binary.BigEndian.Uint32(b[len(magic):])
	body := b[headerLen:]
	if uint32(len(body)) < declared {
		return nil, simerr.Invalidf("checkpoint: torn file: payload is %d bytes, header declares %d",
			len(body), declared)
	}
	if uint32(len(body)) > declared {
		return nil, simerr.Invalidf("checkpoint: %d trailing bytes after the declared %d-byte payload",
			uint32(len(body))-declared, declared)
	}
	wantCRC := binary.BigEndian.Uint32(b[len(magic)+4:])
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return nil, simerr.Invalidf("checkpoint: CRC mismatch (stored %08x, computed %08x): file is corrupted",
			wantCRC, got)
	}
	return body, nil
}

// Encode serializes a snapshot into the CRC-guarded container format.
func Encode(s Snapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, simerr.Invalidf("checkpoint: marshal snapshot: %v", err)
	}
	return EncodeContainer(payload), nil
}

// Decode parses and verifies a container produced by Encode. Every failure
// mode — torn header, truncated or over-long payload, CRC mismatch,
// undecodable or inconsistent payload — comes back as a typed
// ErrInvalidConfig-classed error; a corrupted snapshot is never partially
// returned.
func Decode(b []byte) (Snapshot, error) {
	body, err := DecodeContainer(b)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, simerr.Invalidf("checkpoint: undecodable payload: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// Save atomically writes the snapshot to path: temp file in the same
// directory, fsync, rename, directory fsync (best effort). A crash at any
// point leaves either the previous snapshot or a stray temp file — never a
// torn file under path.
func Save(path string, s Snapshot) error {
	buf, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: create directory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write temp file: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp file: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	// Persist the rename itself (best effort — not all filesystems support
	// directory fsync).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and verifies the snapshot at path. A missing file satisfies
// errors.Is(err, fs.ErrNotExist) so callers can distinguish "no checkpoint
// yet" (start cold) from corruption (refuse).
func Load(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
		}
		return Snapshot{}, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	s, err := Decode(b)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// IsNotExist reports whether a Load failure means "no checkpoint file".
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// PathFor returns the canonical snapshot location for a request key inside
// a checkpoint directory.
func PathFor(dir, key string) string { return filepath.Join(dir, key+".qisnap") }
