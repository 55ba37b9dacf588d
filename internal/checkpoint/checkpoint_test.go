package checkpoint

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

func testMeta() Meta {
	return Meta{
		Kind: "surface.mc", Key: strings.Repeat("ab", 32),
		Seed: 11, ShardSize: 64, Budget: 1000,
	}
}

func testSnapshot() Snapshot {
	return Snapshot{
		Version: Version, Meta: testMeta(),
		Shards: 5, Shots: 320, Events: 17,
		State: []byte("42"), SavedAt: time.Unix(1700000000, 0).UTC(),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnapshot()
	b, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Meta != s.Meta || got.Shards != s.Shards || got.Shots != s.Shots ||
		got.Events != s.Events || string(got.State) != string(s.State) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, s)
	}
}

// TestDecodeRejectsEveryTruncation slices the valid encoding at every length
// and demands a typed error — a torn file (partial write) must never decode.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	b, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("truncation at %d/%d bytes: want typed ErrInvalidConfig, got %v", n, len(b), err)
		}
	}
}

// TestDecodeRejectsEveryBitFlip flips one bit in every byte of the valid
// encoding: each mutation must either fail typed or (never) silently decode
// to different content.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	orig := testSnapshot()
	b, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := make([]byte, len(b))
		copy(mut, b)
		mut[i] ^= 0x40
		got, err := Decode(mut)
		if err == nil {
			// A flip inside a JSON string value can keep CRC-guarded content
			// valid only if the CRC also matches — impossible for a single
			// bit flip in payload. Header flips that decode must reproduce
			// the original exactly (cannot happen either).
			if got.Meta != orig.Meta || got.Shots != orig.Shots {
				t.Fatalf("bit flip at byte %d silently decoded to different content", i)
			}
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("bit flip at byte %d: want typed error, got %v", i, err)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b, _ := Encode(testSnapshot())
	b = append(b, []byte("EXTRA")...)
	if _, err := Decode(b); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("trailing garbage: want typed error, got %v", err)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	s := testSnapshot()
	s.Version = Version + 1
	if _, err := Encode(s); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("encode of future version: want typed error, got %v", err)
	}
	// Bad container magic.
	b, _ := Encode(testSnapshot())
	copy(b, "QISNAP99")
	if _, err := Decode(b); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("unknown container version: want typed error, got %v", err)
	}
}

func TestValidateRejectsInconsistentSnapshots(t *testing.T) {
	mutations := []func(*Snapshot){
		func(s *Snapshot) { s.Meta.Kind = "" },
		func(s *Snapshot) { s.Meta.Key = "" },
		func(s *Snapshot) { s.Meta.ShardSize = 0 },
		func(s *Snapshot) { s.Meta.Budget = -1 },
		func(s *Snapshot) { s.Shots = s.Meta.Budget + 1 },
		func(s *Snapshot) { s.Events = s.Shots + 1 },
		func(s *Snapshot) { s.Shards = -1 },
		func(s *Snapshot) { s.State = nil },
	}
	for i, mut := range mutations {
		s := testSnapshot()
		mut(&s)
		if err := s.Validate(); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("mutation %d: want typed error, got %v", i, err)
		}
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, testMeta().Key)
	s := testSnapshot()
	if err := Save(path, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Overwrite with a later snapshot: rename must replace atomically.
	s2 := s
	s2.Shards, s2.Shots = 10, 640
	if err := Save(path, s2); err != nil {
		t.Fatalf("second save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Shards != 10 || got.Shots != 640 {
		t.Fatalf("load returned stale snapshot: %+v", got)
	}
	// No stray temp files survive a successful save.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("stray temp file left behind: %s", e.Name())
		}
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.qisnap"))
	if err == nil || !IsNotExist(err) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}

func TestLoadTornFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "torn")
	b, _ := Encode(testSnapshot())
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("torn on-disk file: want typed error, got %v", err)
	}
}

func TestMatchMismatch(t *testing.T) {
	s := testSnapshot()
	cases := []Meta{}
	for i := 0; i < 6; i++ {
		m := testMeta()
		switch i {
		case 0:
			m.Kind = "pauli.mc"
		case 1:
			m.Key = strings.Repeat("cd", 32)
		case 2:
			m.Seed = 99
		case 3:
			m.ShardSize = 128
		case 4:
			m.Budget = 2000
		case 5:
			m.TargetRelStdErr = 0.05
		}
		cases = append(cases, m)
	}
	for i, m := range cases {
		if err := s.Match(m); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("mismatch case %d: want typed error, got %v", i, err)
		}
	}
	if err := s.Match(testMeta()); err != nil {
		t.Errorf("identical meta rejected: %v", err)
	}
}

// TestSaverResumeEndToEnd drives a real sharded run through a Saver, kills
// it mid-run, resumes via LoadResume and checks bit-identity with a cold
// run.
func TestSaverResumeEndToEnd(t *testing.T) {
	const shots, seed = 1000, 5
	meta := Meta{Kind: "test.mc", Key: "k1", Seed: seed, ShardSize: 64, Budget: shots}
	body := func(tk *simrun.ShardTask) (int, int, error) {
		n := 0
		for i := 0; tk.Continue(i); i++ {
			if tk.RNG.Float64() < 0.3 {
				n++
			}
		}
		return n, n, nil
	}
	mergeInt := func(dst *int, src int) { *dst += src }

	cold, coldSt, err := simrun.RunSharded(context.Background(), shots, seed,
		simrun.Options{ShardSize: 64, Workers: 1}, body, mergeInt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := PathFor(dir, meta.Key)
	sv := &Saver{Path: path, Meta: meta}
	ctx, cancel := context.WithCancel(context.Background())
	opt := simrun.Options{ShardSize: 64, Workers: 1, CheckEvery: 1, Checkpoint: sv.Hook(),
		Progress: func(done, _ int) {
			if done >= 320 {
				cancel()
			}
		}}
	_, killedSt, err := simrun.RunSharded(ctx, shots, seed, opt, body, mergeInt)
	if err != nil {
		t.Fatalf("killed run: %v", err)
	}
	if !killedSt.Truncated || sv.Err() != nil || sv.Saves() == 0 {
		t.Fatalf("killed run: status %+v, saver err %v, saves %d", killedSt, sv.Err(), sv.Saves())
	}

	rs, snap, err := LoadResume(path, meta)
	if err != nil || rs == nil {
		t.Fatalf("load resume: %v (rs %v)", err, rs)
	}
	if !snap.Final {
		t.Fatalf("final flush not recorded: %+v", snap)
	}
	for _, workers := range []int{1, 4, 7} {
		res, st, err := simrun.RunSharded(context.Background(), shots, seed,
			simrun.Options{ShardSize: 64, Workers: workers, Resume: rs}, body, mergeInt)
		if err != nil {
			t.Fatalf("resume (workers %d): %v", workers, err)
		}
		if res != cold || st != coldSt {
			t.Fatalf("resume (workers %d): got (%d, %+v), want (%d, %+v)", workers, res, st, cold, coldSt)
		}
	}

	// Resume against a different run identity must be refused.
	wrong := meta
	wrong.Seed = 999
	if _, _, err := LoadResume(path, wrong); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("mismatched resume: want typed error, got %v", err)
	}
	// Missing file: cold start, no error.
	rs2, _, err := LoadResume(PathFor(dir, "other-key"), meta)
	if err != nil || rs2 != nil {
		t.Fatalf("missing checkpoint: want (nil, nil), got (%v, %v)", rs2, err)
	}
}

// TestAttachResume: with resume on, Attach starts cold from a missing file
// and refuses a torn snapshot or one saved for another seed with a typed
// error; it never guesses.
func TestAttachResume(t *testing.T) {
	whole, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	otherSeed := testMeta()
	otherSeed.Seed++
	for _, c := range []struct {
		name    string
		file    []byte // nil: no snapshot on disk
		meta    Meta
		wantErr error
	}{
		{"missing file", nil, testMeta(), nil},
		{"torn file", whole[:len(whole)/2], testMeta(), simerr.ErrInvalidConfig},
		{"another seed", whole, otherSeed, simerr.ErrInvalidConfig},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.file != nil {
				if err := os.WriteFile(PathFor(dir, c.meta.Key), c.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var opt simrun.Options
			_, loaded, err := Attach(&opt, dir, true, 1, c.meta)
			if !errors.Is(err, c.wantErr) {
				t.Errorf("got error %v, want %v", err, c.wantErr)
			}
			if loaded != nil || opt.Resume != nil {
				t.Errorf("resumed from a snapshot (%+v)", loaded)
			}
		})
	}
}

// TestSaverEveryThrottle checks the Every throttle writes fewer mid-run
// snapshots but always flushes the final state.
func TestSaverEveryThrottle(t *testing.T) {
	meta := Meta{Kind: "test.mc", Key: "k2", Seed: 3, ShardSize: 10, Budget: 200}
	body := func(tk *simrun.ShardTask) (int, int, error) { return tk.N, -1, nil }
	dir := t.TempDir()
	sv := &Saver{Path: PathFor(dir, meta.Key), Meta: meta, Every: 8}
	_, _, err := simrun.RunSharded(context.Background(), 200, 3,
		simrun.Options{ShardSize: 10, Workers: 1, Checkpoint: sv.Hook()},
		body, func(dst *int, src int) { *dst += src })
	if err != nil {
		t.Fatal(err)
	}
	// 20 commits / 8 = 2 throttled saves + 1 final flush.
	if sv.Saves() != 3 {
		t.Fatalf("saves = %d, want 3", sv.Saves())
	}
	snap, err := Load(sv.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Final || !snap.Complete() || snap.Shots != 200 {
		t.Fatalf("final snapshot wrong: %+v", snap)
	}
}
