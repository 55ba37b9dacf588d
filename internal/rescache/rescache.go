// Package rescache is qisimd's content-addressed result cache. A QIsim
// analysis is a pure function of (request kind, normalized parameters, seed,
// shard size) — the deterministic sharded engine (internal/simrun) makes the
// result bit-exact for every worker count — so identical requests can share
// one stored result byte-for-byte.
//
// Keys are the SHA-256 of a canonical JSON envelope (see KeyFor): JSON
// object keys are sorted recursively, so two requests that differ only in
// field order, whitespace, or defaulted-vs-explicit options (after the
// caller's normalization) produce the same key. The key format is versioned
// (`"v":1`) so a future envelope change cannot silently alias old keys.
//
// Every entry stores a SHA-256 checksum of its body, re-verified on each
// Get: a corrupted entry is detected, dropped, and reported as a miss — a
// poisoned result is never served (TestCacheDetectsCorruption).
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// KeyVersion is the canonical-envelope version baked into every key. Bump it
// when the envelope layout changes so old and new keys can never collide.
const KeyVersion = 1

// Key is the 64-character lowercase hex SHA-256 of a canonical request
// envelope.
type Key string

// Valid reports whether k is a well-formed key (64 hex chars).
func (k Key) Valid() bool {
	if len(k) != 64 {
		return false
	}
	_, err := hex.DecodeString(string(k))
	return err == nil
}

// CanonicalJSON marshals v into canonical JSON: object keys sorted
// recursively (encoding/json sorts map keys), no insignificant whitespace.
// It round-trips v through an untyped tree, so struct field order, input
// key order and formatting cannot leak into the bytes.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("rescache: canonicalize marshal: %w", err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, fmt.Errorf("rescache: canonicalize reparse: %w", err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("rescache: canonicalize remarshal: %w", err)
	}
	return out, nil
}

// keyEnvelope is the struct whose canonical JSON is hashed. Field names are
// part of the key contract — changing them requires a KeyVersion bump.
type keyEnvelope struct {
	V         int             `json:"v"`
	Kind      string          `json:"kind"`
	Params    json.RawMessage `json:"params"`
	Seed      int64           `json:"seed"`
	ShardSize int             `json:"shard_size"`
}

// KeyFor derives the content-address of a request: the SHA-256 of the
// versioned canonical envelope over (kind, params, seed, shardSize). params
// is canonicalized first, so any JSON-equivalent params value keys
// identically. Execution hints that do not change the result bytes (worker
// count!) must NOT be part of params.
func KeyFor(kind string, params any, seed int64, shardSize int) (Key, error) {
	cp, err := CanonicalJSON(params)
	if err != nil {
		return "", err
	}
	env, err := CanonicalJSON(keyEnvelope{
		V: KeyVersion, Kind: kind, Params: cp, Seed: seed, ShardSize: shardSize,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(env)
	return Key(hex.EncodeToString(sum[:])), nil
}

// Stats are the cache's cumulative observability counters (all monotonic
// except Entries).
type Stats struct {
	Hits        uint64
	Misses      uint64
	Corruptions uint64
	Evictions   uint64
	Entries     int
}

// entry is one cached result with its integrity checksum.
type entry struct {
	key       Key
	kind      string
	body      []byte
	sum       [sha256.Size]byte
	createdAt time.Time
}

// Cache is a bounded in-memory LRU of content-addressed results. Safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *entry
	items map[Key]*list.Element
	stats Stats
}

// New returns a cache bounded to maxEntries (minimum 1).
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{max: maxEntries, ll: list.New(), items: map[Key]*list.Element{}}
}

// Put stores body under key (kind is recorded for observability). The body
// is copied, and its checksum fixed at insertion time. Re-putting an
// existing key replaces the entry — the recovery path after a detected
// corruption.
func (c *Cache) Put(key Key, kind string, body []byte) {
	b := make([]byte, len(body))
	copy(b, body)
	e := &entry{key: key, kind: kind, body: b, sum: sha256.Sum256(b), createdAt: time.Now()}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.removeLocked(oldest)
		c.stats.Evictions++
	}
}

// Get returns a copy of the stored body. Before serving, the body is
// re-hashed against the insertion-time checksum: a mismatch (bit rot,
// accidental in-place mutation) drops the entry, counts a corruption AND a
// miss, and returns ok=false so the caller recomputes — a corrupted result
// is never served.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if sha256.Sum256(e.body) != e.sum {
		c.removeLocked(el)
		c.stats.Corruptions++
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	out := make([]byte, len(e.body))
	copy(out, e.body)
	return out, true
}

// Contains reports whether key is present without touching LRU order,
// integrity, or stats.
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// KindCounts returns the number of resident entries per kind — the
// breakdown behind the qisimd_cache_entries_by_kind gauge. A sweep's
// fan-out is visible here as a burst of dse.point entries.
func (c *Cache) KindCounts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out[el.Value.(*entry).kind]++
	}
	return out
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// removeLocked unlinks an element; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	c.ll.Remove(el)
	delete(c.items, el.Value.(*entry).key)
}
